"""Invariants of periodic point sets: PDD/AMD, packing coefficient and the
asymptotic deviations (ADA/PDA/AND/PND), EMD metrics, novelty distance and
the near-duplicate detection pipeline.

Sets are built as stacks: the sets of a dataset that share a motif size,
rank and dimension are checked, reduced into their cells and given the
preamble of their neighbour search (Gram determinant and inverse plane
gaps) by one stacked call, and a single ``PeriodicSet`` is the stack of
one.  The neighbour search, which starts at the AMD_k asymptotic
ppc * k^(1/l), stays per set.  ``dedup`` and ``lnd`` work from one (N, k)
ADA matrix of the dataset, taken from one PDD per set, and build a PDA
only for a set that reaches an EMD; ``deviations`` is that path for one
set.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import gamma

from .clouds import WeightedRows, collapse_rows, pdd_dist
from .numcore import _REALS, INF, _as_index, _pairwise, _real, _within, norm_exponent

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
    a, b, c = (_real(x, "cell lengths", positive=True) for x in (a, b, c))
    for ang in (alpha, beta, gamma_deg):
        if not (isinstance(ang, _REALS) and 0.0 < ang < 180.0):
            raise ValueError(f"cell angle {ang} out of range (0, 180)")
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
    """An l-periodic set in R^n: basis (l x n) plus a finite Cartesian motif.

    Construction is the stack of one of ``_sets``: the input is checked,
    the motif reduced into the cell, and the Gram determinant (for the cell
    volume) and the inverse plane gaps (for the neighbour search) are kept.
    """

    basis: np.ndarray
    motif: np.ndarray
    labels: Optional[Sequence[str]] = None
    _det: float = field(init=False, repr=False, compare=False)
    _inv_gaps: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.__dict__.update(vars(_sets([self.basis], [self.motif], [self.labels])[0]))

    @classmethod
    def from_fractional(cls, basis, frac, labels=None):
        return _sets([basis], [frac], [labels], fractional=True)[0]

    @property
    def rank(self):
        return self.basis.shape[0]

    @property
    def dim(self):
        return self.basis.shape[1]

    def cell_volume(self):
        return math.sqrt(self._det)


def _checked(bases, motifs):
    """Check a stack of bases (G, l, n) with motifs (G, m, n) of equal shapes.

    Returns the motifs reduced into their cells, the Gram determinants (G,)
    and the inverse plane gaps (G, l); raises ValueError naming the first
    fault of the stack, in the order a single set is checked.
    """
    if bases.ndim != 3 or motifs.ndim != 3:  # a leading axis is not a set
        raise ValueError(f"a basis and a motif are 2-D arrays, got shapes {bases.shape[1:]} "
                         f"and {motifs.shape[1:]}")
    l, n = bases.shape[1:]
    if not 1 <= l <= n:
        raise ValueError("period rank exceeds the ambient dimension" if l
                         else "period rank must be at least 1")
    if not np.isfinite(bases).all():
        raise ValueError("non-finite basis")
    if not np.isfinite(motifs).all():
        raise ValueError("non-finite motif coordinates")
    if motifs.shape[1] == 0:
        raise ValueError("empty motif")
    # checked before pinv, whose SVD does not return on inf or nan
    with np.errstate(over="ignore"):
        grams = bases @ bases.transpose(0, 2, 1)
        if not np.isfinite(grams).all():
            raise ValueError("basis Gram matrix overflows")
        dets = np.linalg.det(grams)
    overflow = ~np.isfinite(dets)
    if overflow.any():
        lengths = _cell_lengths(bases[overflow.argmax()])
        raise ValueError(f"cell volume overflows for cell lengths {lengths}")
    if not (dets > 0).all():
        raise ValueError("basis vectors are linearly dependent")
    if motifs.shape[2] != n:
        raise ValueError("motif dimension does not match the basis")
    # reduce motif representatives into the fundamental cell
    pinvs = np.linalg.pinv(bases)
    frac = motifs @ pinvs
    ortho = motifs - frac @ bases  # component outside the period span
    motifs = (frac - np.floor(frac)) @ bases + ortho
    _reject_duplicates(motifs, bases, pinvs)
    # z @ basis lies |z_i| * h_i from the hyperplane spanned by the other
    # basis vectors, where h_i = 1/sqrt(ginv_ii) is the plane gap of axis i
    inv_gaps = np.sqrt(np.diagonal(np.linalg.inv(grams), axis1=1, axis2=2))
    return motifs, dets, inv_gaps


def _sets(bases, motifs, labels, names=None, fractional=False):
    """The ``PeriodicSet`` of each basis, motif and labels, in order; the
    motifs are Cartesian, or fractional if ``fractional``.

    Each basis and motif is read once, and the sets of equal basis and motif
    shapes are checked by one ``_checked`` call.  If a group fails its check
    and ``names`` are given, its sets are checked one by one, and the error
    of the first faulty one is raised prefixed with its name.
    """
    pairs = [[np.atleast_2d(np.asarray(a, dtype=float)) for a in pair] for pair in zip(bases, motifs)]
    groups = {}
    for i, (basis, motif) in enumerate(pairs):
        groups.setdefault((basis.shape, motif.shape), []).append(i)
    sets = [None] * len(pairs)
    for idx in groups.values():
        B, M = (np.stack(stack) for stack in zip(*(pairs[i] for i in idx)))
        if fractional:
            with np.errstate(all="ignore"):  # a non-finite motif is rejected below
                M = M @ B
        try:
            checked = _checked(B, M)
        except ValueError:
            if names is None:
                raise
            for j, i in enumerate(idx):
                try:
                    _checked(B[j : j + 1], M[j : j + 1])
                except ValueError as exc:
                    raise ValueError(f"{names[i]}: {exc}") from None
            raise
        for i, basis, motif, det, inv_gaps in zip(idx, B, *checked):
            S = sets[i] = object.__new__(PeriodicSet)
            S.__dict__.update(labels=labels[i], basis=basis, motif=motif, _det=det,
                              _inv_gaps=inv_gaps)
    return sets


def _reject_duplicates(motifs, bases, pinvs):
    """Raise if two points of one motif differ by a lattice vector (up to the tol).

    Pairs i < j are tested for a block of motifs and rows at a time, with at
    most MOTIF_PAIR_BLOCK candidate pairs per block (one row of one motif if
    m is larger).
    """
    count, m = motifs.shape[:2]
    cols = np.arange(m)
    step = max(1, MOTIF_PAIR_BLOCK // max(m, 1))
    per_block = max(1, MOTIF_PAIR_BLOCK // (min(step, m) * m))
    for g in range(0, count, per_block):
        block = slice(g, g + per_block)
        for i0 in range(0, m - 1, step):
            i, j = np.nonzero(cols[i0 : i0 + step, None] < cols)
            diff = motifs[block, i + i0] - motifs[block, j]
            f = diff @ pinvs[block]
            nearest = (f - np.rint(f)) @ bases[block] + (diff - f @ bases[block])
            if (np.linalg.norm(nearest, axis=-1) < MOTIF_DUPLICATE_TOL).any():
                raise ValueError("duplicate motif points under lattice translation")


def _lattice_ball(basis, radii, rho):
    """Lattice vectors of norm <= rho inside the coefficient box |z_i| <= radii[i]
    (a list of Python ints); the norms are compared by their squares."""
    coeffs = np.indices([2 * x + 1 for x in radii]).reshape(len(radii), -1).T - np.array(radii)
    translates = coeffs @ basis
    return translates[np.einsum("ij,ij->i", translates, translates) <= rho * rho]


def _cell_lengths(basis):
    return ", ".join(f"{x:.3g}" for x in np.linalg.norm(basis, axis=1))


def _check_budget(cells, what, k, basis):
    """Raise ValueError, naming the cell, if one array of a neighbour search
    passes the budget."""
    _within(cells, NEIGHBOUR_CELL_BUDGET, lambda: f"neighbour search for k={k} needs "
            f"{cells:.3g} cells of {what} (cell lengths {_cell_lengths(basis)})")


def _checked_k(k):
    """``k`` as a Python integer; ValueError unless 1 <= k < NEIGHBOUR_CELL_BUDGET."""
    k = _as_index(k, "k", 1)
    if k >= NEIGHBOUR_CELL_BUDGET:
        # each row needs k + 1 candidates, more cells than the budget
        raise ValueError(f"k={k} is over the neighbour cell budget of {NEIGHBOUR_CELL_BUDGET}")
    return k


def neighbours(S, k):
    """Exact k nearest-neighbour distances within the infinite set.

    Returns an (m, k) array: row i holds the k smallest distances from
    motif point i to all other points of S.  Candidates are the motif
    shifted by every lattice vector of norm <= rho = r + diam, so a point
    left out is farther than r from every motif point, and a round whose
    largest k-th distance is <= r is exact, whatever r it started from.
    Otherwise r grows to that distance, which the larger candidate set can
    only lower, so a round at it is the last.

    The search starts at the AMD_k asymptotic, r = ppc * (k^(1/l) + 1/2):
    k-th distances lie close to ppc * k^(1/l), and the margin of half a
    packing radius lets one round certify nearly every set.  r grows no
    further than r0 = ppc * (k/m + 1)^(1/l) + diam until a round at r0 has
    run, so no ball is larger than those of a search started at r0, and a
    set whose search from r0 fits the budget fits it from here too.
    Distances, the motif diameter's too, are taken a block of motif rows at
    a time; a coefficient box or candidate set over NEIGHBOUR_CELL_BUDGET
    cells raises ValueError before it is allocated.
    """
    k = _checked_k(k)
    basis, motif = S.basis, S.motif
    m = len(motif)
    step = max(1, NEIGHBOUR_CELL_BUDGET // m)
    diam = max(float(_pairwise(motif[i : i + step], motif).max()) for i in range(0, m, step))
    inv_gaps = S._inv_gaps.tolist()
    c = ppc(S)
    r0 = c * (k / m + 1) ** (1.0 / S.rank) + diam
    r = min(c * (k ** (1.0 / S.rank) + 0.5), r0)
    while True:
        # the relative margin keeps boundary translates, far above rounding
        rho = (r + diam) * (1.0 + 1e-9)
        radii = [math.floor(rho * g) for g in inv_gaps]
        box = math.prod([2.0 * x + 1.0 for x in radii])
        _check_budget(box * (S.rank + S.dim), "coefficient box", k, basis)
        translates = _lattice_ball(basis, radii, rho)
        _check_budget(m * len(translates) * S.dim, "candidate points", k, basis)
        points = (motif[None, :, :] + translates[:, None, :]).reshape(-1, S.dim)
        if len(points) <= k:
            grown = 2.0 * r
        else:
            rows = np.empty((m, k))
            step = max(1, NEIGHBOUR_CELL_BUDGET // len(points))
            for i in range(0, m, step):
                d = _pairwise(motif[i : i + step], points)
                d.partition(k, axis=1)
                near = d[:, : k + 1]
                near.sort(axis=1)
                rows[i : i + step] = near[:, 1:]  # drop the zero self-distance
                del d, near
            grown = float(rows[:, -1].max())
            if grown <= r:
                return rows
        r = grown if r >= r0 else min(grown, r0)


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
    weighted-row matrices; this is ``_ada_pda`` of one set.
    """
    ada, parts, pda = _ada_pda([S], k)
    ((P, asym),) = parts
    a = P.weights @ P.rows
    return {
        "ada": ada[0],
        "and": a / asym - 1.0,
        "pda": pda(0),
        "pnd": WeightedRows(P.weights, P.rows / asym - 1.0),
    }


def _ada_pda(sets, k):
    """The (N, k) ADA matrix of a dataset, the parts (PDD, ppc * j^(1/l)) of
    each set, and the cached ``pda(i)``, the PDA carrier of set i.

    Ranks, then k, are checked before any array is built, and the sets are
    searched in order, so a search over the budget raises for the first.
    """
    _check_ranks(sets)
    k = _checked_k(k)
    parts = [(pdd_periodic(S, k), ppc(S) * np.arange(1, k + 1) ** (1.0 / S.rank)) for S in sets]
    ada = np.array([P.weights @ P.rows - asym for P, asym in parts])

    @functools.cache
    def pda(i):
        P, asym = parts[i]
        return WeightedRows(P.weights, P.rows - asym)

    return ada, parts, pda


def _check_ranks(sets):
    """Raise if ``sets`` differ in period rank (read from ``S.rank``)."""
    if len({S.rank for S in sets}) > 1:
        raise ValueError("period ranks differ")


def _ids(ids, dataset):
    """The ids of a non-empty dataset, by default the indices of its sets."""
    if not dataset:
        raise ValueError("empty dataset")
    if ids is None:
        return range(len(dataset))
    if len(ids) != len(dataset):
        raise ValueError(f"{len(ids)} ids for a dataset of {len(dataset)} sets")
    return ids


def pda_dist(S, Q, k, q=INF):
    """EMD between the PDA matrices of two periodic sets (ground L_q).

    Both PDAs come from one ``_ada_pda`` call, which builds no AND or PND.
    """
    q = norm_exponent(q)
    _, _, pda = _ada_pda([S, Q], k)
    return pdd_dist(pda(0), pda(1), q)


def lnd(S, dataset, k, ids=None):
    """Local Novelty Distance: nearest EMD(PDA) over a reference dataset.

    Returns ``(value, id)`` of the reference with the smallest EMD_inf
    between PDA matrices; among equal values the smallest index wins.
    The L_inf(ADA) gaps to every reference, lower bounds for that EMD, are
    one max over the ADA matrix of S and the dataset.  References are
    visited in order of gap, and the scan stops at the first gap larger
    than the best value found so far, since no later reference can then
    reach it; only the PDAs of visited references are built.
    """
    ids = _ids(ids, dataset)
    ada, _, pda = _ada_pda([S, *dataset], k)
    gaps = np.abs(ada[0] - ada[1:]).max(axis=1).tolist()
    best, best_idx = math.inf, None
    for gap, idx in sorted(zip(gaps, range(len(dataset)))):
        if gap > best:
            break
        d = pdd_dist(pda(0), pda(idx + 1), INF)
        if d < best or (d == best and idx < best_idx):
            best, best_idx = d, idx
    return best, ids[best_idx]


def dedup(dataset, k=100, ada_threshold=0.01, confirm_threshold=0.01, ids=None):
    """Near-duplicate pairs: L_inf(ADA) filter then EMD(PDA) confirmation.

    The filter is a true lower bound for the confirmation metric, so no
    acceptable pair is skipped; a KD-tree over the rows of the (N, k) ADA
    matrix finds the pairs whose ADA gap is <= ada_threshold, and only the
    PDAs of their sets are built.  Pairs are reported sorted by EMD value.
    """
    ada_threshold = _real(ada_threshold, "ada_threshold")
    confirm_threshold = _real(confirm_threshold, "confirm_threshold")
    ids = _ids(ids, dataset)
    ada, _, pda = _ada_pda(dataset, k)
    results = []
    for i, j in sorted(cKDTree(ada).query_pairs(ada_threshold, p=np.inf)):
        value = pdd_dist(pda(i), pda(j), INF)
        if value <= confirm_threshold:
            results.append((ids[i], ids[j], float(np.abs(ada[i] - ada[j]).max()), value))
    results.sort(key=lambda t: (t[3], t[0], t[1]))
    return results
