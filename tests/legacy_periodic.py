"""Reference copies of the one-set-at-a-time periodic code and the row loop
of ``collapse_rows``, kept verbatim as oracles: the stacked construction,
the neighbour search, the array ``collapse_rows`` and the dataset path of
``lnd`` and ``dedup`` must match them bit for bit.
``PeriodicSet.__post_init__`` is kept as ``reduce_motif``, which returns the
checked basis and the reduced motif; ``lnd`` and ``dedup`` call the
``deviations`` of this module once per set.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import gamma

from geoinv.clouds import WeightedRows, pdd_dist
from geoinv.numcore import INF, _as_index, _pairwise
from geoinv.periodic import (
    MOTIF_DUPLICATE_TOL,
    MOTIF_PAIR_BLOCK,
    NEIGHBOUR_CELL_BUDGET,
    _cell_lengths,
    _check_budget,
    _check_ranks,
)


def collapse_rows(rows, weights, tol=0.0):
    """Merge rows equal within ``tol`` componentwise; canonical lex order."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    weights = np.asarray(weights, dtype=float)
    if rows.size == 0:
        raise ValueError("collapse_rows needs at least one non-empty row")
    order = np.lexsort(rows.T[::-1])
    rows, weights = rows[order], weights[order]
    out_rows, out_w = [rows[0]], [weights[0]]
    for row, w in zip(rows[1:], weights[1:]):
        if np.abs(row - out_rows[-1]).max() <= tol:
            out_w[-1] += w
        else:
            out_rows.append(row)
            out_w.append(w)
    return WeightedRows(np.array(out_w), np.array(out_rows))


def reduce_motif(basis, motif):
    basis = np.atleast_2d(np.asarray(basis, dtype=float))
    motif = np.atleast_2d(np.asarray(motif, dtype=float))
    l, n = basis.shape
    if l > n:
        raise ValueError("period rank exceeds the ambient dimension")
    if not np.isfinite(basis).all():
        raise ValueError("non-finite basis")
    if not np.isfinite(motif).all():
        raise ValueError("non-finite motif coordinates")
    if len(motif) == 0:
        raise ValueError("empty motif")
    # checked before pinv, whose SVD does not return on inf or nan
    with np.errstate(over="ignore"):
        g = basis @ basis.T
        if not np.isfinite(g).all():
            raise ValueError("basis Gram matrix overflows")
        det = np.linalg.det(g)
    if not np.isfinite(det):
        raise ValueError(f"cell volume overflows for cell lengths {_cell_lengths(basis)}")
    if det <= 0:
        raise ValueError("basis vectors are linearly dependent")
    if motif.shape[1] != n:
        raise ValueError("motif dimension does not match the basis")
    # reduce motif representatives into the fundamental cell
    pinv = np.linalg.pinv(basis)
    frac = motif @ pinv
    ortho = motif - frac @ basis  # component outside the period span
    motif = (frac - np.floor(frac)) @ basis + ortho
    _reject_duplicates(motif, basis, pinv)
    return basis, motif


def cell_volume(S):
    g = S.basis @ S.basis.T
    return float(math.sqrt(np.linalg.det(g)))


def _reject_duplicates(motif, basis, pinv):
    """Raise if two motif points differ by a lattice vector (up to the tol).

    Pairs i < j are tested a block of rows at a time, with at most
    MOTIF_PAIR_BLOCK candidate pairs per block (one row if m is larger).
    """
    m = len(motif)
    cols = np.arange(m)
    step = max(1, MOTIF_PAIR_BLOCK // max(m, 1))
    for i0 in range(0, m - 1, step):
        i, j = np.nonzero(cols[i0 : i0 + step, None] < cols)
        diff = motif[i + i0] - motif[j]
        f = diff @ pinv
        nearest = (f - np.rint(f)) @ basis + (diff - f @ basis)
        if (np.linalg.norm(nearest, axis=1) < MOTIF_DUPLICATE_TOL).any():
            raise ValueError("duplicate motif points under lattice translation")


def _lattice_ball(basis, radii, rho):
    """Lattice vectors of norm <= rho inside the coefficient box |z_i| <= radii[i]."""
    ranges = [np.arange(-R, R + 1) for R in radii]
    coeffs = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, len(radii))
    translates = coeffs @ basis
    return translates[np.linalg.norm(translates, axis=1) <= rho]


def neighbours(S, k):
    """Exact k nearest-neighbour distances within the infinite set."""
    k = _as_index(k, "k")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k >= NEIGHBOUR_CELL_BUDGET:
        # each row needs k + 1 candidates, more cells than the budget
        raise ValueError(f"k={k} is over the neighbour cell budget of {NEIGHBOUR_CELL_BUDGET}")
    basis, motif = S.basis, S.motif
    m = len(motif)
    diam = float(_pairwise(motif, motif).max())
    # z @ basis lies |z_i| * h_i from the hyperplane spanned by the other
    # basis vectors, where h_i = 1/sqrt(ginv_ii) is the plane gap of axis i
    inv_gaps = np.sqrt(np.diag(np.linalg.inv(basis @ basis.T)))
    # initial radius from the packing coefficient asymptotic
    r = ppc(S) * (k / m + 1) ** (1.0 / S.rank) + diam
    while True:
        # the relative margin keeps boundary translates, far above rounding
        rho = (r + diam) * (1.0 + 1e-9)
        radii = np.floor(rho * inv_gaps)
        _check_budget(float(np.prod(2 * radii + 1)) * (S.rank + S.dim), "coefficient box", k, basis)
        translates = _lattice_ball(basis, radii.astype(int), rho)
        _check_budget(m * len(translates) * S.dim, "candidate points", k, basis)
        points = (motif[None, :, :] + translates[:, None, :]).reshape(-1, S.dim)
        if len(points) <= k:
            r *= 2.0
            continue
        rows = np.empty((m, k))
        step = max(1, NEIGHBOUR_CELL_BUDGET // len(points))
        for i in range(0, m, step):
            d = _pairwise(motif[i : i + step], points)
            d.partition(k, axis=1)
            # drop the zero self-distance in each row
            rows[i : i + step] = np.sort(d[:, : k + 1], axis=1)[:, 1:]
            del d
        kth_max = float(rows[:, -1].max())
        if kth_max <= r:
            return rows
        r = kth_max


def pdd_periodic(S, k, collapse_tol=0.0):
    """Pointwise Distance Distribution of a periodic set."""
    rows = neighbours(S, k)
    weights = np.full(len(rows), 1.0 / len(rows))
    return collapse_rows(rows, weights, collapse_tol)


def ppc(S):
    """Point Packing Coefficient (vol per point / unit-ball volume)^(1/l)."""
    l = S.rank
    v_l = math.pi ** (l / 2.0) / gamma(l / 2.0 + 1.0)
    return float((cell_volume(S) / (len(S.motif) * v_l)) ** (1.0 / l))


def deviations(S, k):
    """Deviations of AMD/PDD from the PPC * k^(1/l) asymptotic."""
    P = pdd_periodic(S, k)
    c = ppc(S)
    l = S.rank
    js = np.arange(1, k + 1) ** (1.0 / l)
    pda_rows = P.rows - c * js[None, :]
    pnd_rows = P.rows / (c * js[None, :]) - 1.0
    a = P.weights @ P.rows
    return {
        "ada": a - c * js,
        "and": a / (c * js) - 1.0,
        "pda": WeightedRows(P.weights, pda_rows),
        "pnd": WeightedRows(P.weights, pnd_rows),
    }


def _ada_gap(dev_a, dev_b):
    """L_inf distance between ADA vectors, a lower bound for EMD_inf(PDA)."""
    return float(np.abs(dev_a["ada"] - dev_b["ada"]).max())


def lnd(S, dataset, k, ids=None):
    """Local Novelty Distance: nearest EMD(PDA) over a reference dataset.

    Returns ``(value, id)`` of the reference with the smallest EMD_inf
    between PDA matrices; among equal values the smallest index wins.
    References are visited in order of the L_inf(ADA) gap, a lower bound
    for that EMD, and the scan stops at the first gap larger than the best
    value found so far, since no later reference can then reach it.
    """
    if not dataset:
        raise ValueError("empty dataset")
    _check_ranks([S, *dataset])
    dev_s = deviations(S, k)
    devs = [deviations(Q, k) for Q in dataset]
    gaps = [_ada_gap(dev_s, dev) for dev in devs]
    best, best_idx = math.inf, None
    for gap, idx in sorted(zip(gaps, range(len(devs)))):
        if gap > best:
            break
        d = pdd_dist(dev_s["pda"], devs[idx]["pda"], INF)
        if d < best or (d == best and idx < best_idx):
            best, best_idx = d, idx
    return best, ids[best_idx] if ids is not None else best_idx


def dedup(dataset, k=100, ada_threshold=0.01, confirm_threshold=0.01, ids=None):
    """Near-duplicate pairs: L_inf(ADA) filter then EMD(PDA) confirmation.

    The filter is a true lower bound for the confirmation metric, so no
    acceptable pair is skipped; a KD-tree finds the pairs whose ADA gap is
    <= ada_threshold.  Pairs are reported sorted by EMD value.
    """
    if not dataset:
        raise ValueError("empty dataset")
    for name, t in (("ada_threshold", ada_threshold), ("confirm_threshold", confirm_threshold)):
        if not (math.isfinite(t) and t >= 0):
            raise ValueError(f"{name} must be finite and non-negative, got {t}")
    _check_ranks(dataset)
    if ids is None:
        ids = list(range(len(dataset)))
    devs = [deviations(S, k) for S in dataset]
    ada = np.array([dev["ada"] for dev in devs])
    results = []
    for i, j in sorted(cKDTree(ada).query_pairs(ada_threshold, p=np.inf)):
        value = pdd_dist(devs[i]["pda"], devs[j]["pda"], INF)
        if value <= confirm_threshold:
            results.append((ids[i], ids[j], _ada_gap(devs[i], devs[j]), value))
    results.sort(key=lambda t: (t[3], t[0], t[1]))
    return results
