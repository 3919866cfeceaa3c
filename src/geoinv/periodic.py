"""Invariants of periodic point sets: PDD/AMD, packing coefficient and the
asymptotic deviations (ADA/PDA/AND/PND), EMD metrics, novelty distance and
the near-duplicate detection pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import gamma

from .clouds import WeightedRows, collapse_rows, pdd_dist
from .numcore import INF, _as_index, _pairwise

#: motif points closer than this under lattice translation are duplicates
MOTIF_DUPLICATE_TOL = 1e-6
#: most motif pairs (rows x m) tested in one numpy step by the duplicate check
MOTIF_PAIR_BLOCK = 4096
#: most 8-byte cells of one neighbour-search array: the coefficient box with
#: its translates, the candidate points, or one block of motif rows of the
#: distance matrix.  2**24 cells are 128 MiB; besides the (m, k) rows it
#: returns, a search holds at most about 3 budgets at once.
NEIGHBOUR_CELL_BUDGET = 2**24


def cell_to_basis(a, b, c, alpha, beta, gamma_deg):
    """Standard crystallographic cell-to-Cartesian basis (angles in degrees)."""
    al, be, ga = (math.radians(v) for v in (alpha, beta, gamma_deg))
    cx = c * math.cos(be)
    cy = c * (math.cos(al) - math.cos(be) * math.cos(ga)) / math.sin(ga)
    cz_sq = c**2 - cx**2 - cy**2
    if cz_sq <= 0:
        raise ValueError("invalid cell: non-positive volume")
    return np.array(
        [
            [a, 0.0, 0.0],
            [b * math.cos(ga), b * math.sin(ga), 0.0],
            [cx, cy, math.sqrt(cz_sq)],
        ]
    )


@dataclass(frozen=True)
class PeriodicSet:
    """An l-periodic set in R^n: basis (l x n) plus a finite Cartesian motif."""

    basis: np.ndarray
    motif: np.ndarray
    labels: Optional[Sequence[str]] = None

    def __post_init__(self):
        basis = np.atleast_2d(np.asarray(self.basis, dtype=float))
        motif = np.atleast_2d(np.asarray(self.motif, dtype=float))
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
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "motif", motif)

    @classmethod
    def from_fractional(cls, basis, frac, labels=None):
        basis = np.atleast_2d(np.asarray(basis, dtype=float))
        frac = np.atleast_2d(np.asarray(frac, dtype=float))
        with np.errstate(all="ignore"):  # a non-finite motif is rejected on init
            motif = frac @ basis
        return cls(basis, motif, labels)

    @property
    def rank(self):
        return self.basis.shape[0]

    @property
    def dim(self):
        return self.basis.shape[1]

    def cell_volume(self):
        g = self.basis @ self.basis.T
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


def _cell_lengths(basis):
    return ", ".join(f"{x:.3g}" for x in np.linalg.norm(basis, axis=1))


def _check_budget(cells, what, k, basis):
    """Raise ValueError, naming the cell, if one array of a neighbour search
    passes the budget."""
    if not cells <= NEIGHBOUR_CELL_BUDGET:  # NaN cells fail too
        raise ValueError(
            f"neighbour search for k={k} needs {cells:.3g} cells of {what} "
            f"(cell lengths {_cell_lengths(basis)}), over the budget of {NEIGHBOUR_CELL_BUDGET}"
        )


def neighbours(S, k):
    """Exact k nearest-neighbour distances within the infinite set.

    Returns an (m, k) array: row i holds the k smallest distances from
    motif point i to all other points of S.  Candidates are the motif
    shifted by every lattice vector of norm <= rho = r + diam, so a point
    left out is farther than r from every motif point, and a search whose
    largest k-th distance is <= r is exact.  Otherwise it is repeated with
    r set to that distance, which the larger candidate set can only lower,
    so one more round suffices.  Distances are taken a block of motif rows
    at a time; a coefficient box or candidate set over NEIGHBOUR_CELL_BUDGET
    cells raises ValueError before it is allocated.
    """
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


def amd(S, k):
    """Average Minimum Distances: weighted column means of the PDD."""
    P = pdd_periodic(S, k)
    return P.weights @ P.rows


def ppc(S):
    """Point Packing Coefficient (vol per point / unit-ball volume)^(1/l)."""
    l = S.rank
    v_l = math.pi ** (l / 2.0) / gamma(l / 2.0 + 1.0)
    return float((S.cell_volume() / (len(S.motif) * v_l)) ** (1.0 / l))


def deviations(S, k):
    """Deviations of AMD/PDD from the PPC * k^(1/l) asymptotic.

    Returns a dict with 'ada' and 'and' vectors plus 'pda' and 'pnd'
    weighted-row matrices.
    """
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


def _check_ranks(sets):
    """Raise if the periodic sets among ``sets`` differ in period rank."""
    if len({S.rank for S in sets if isinstance(S, PeriodicSet)}) > 1:
        raise ValueError("period ranks differ")


def pda_dist(S, Q, k, q=INF):
    """EMD between the PDA matrices of two periodic sets (ground L_q)."""
    _check_ranks([S, Q])
    return pdd_dist(deviations(S, k)["pda"], deviations(Q, k)["pda"], q)


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
