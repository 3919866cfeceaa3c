"""Finite-cloud invariants: sorted radial/pairwise distances and PDD.

The Pointwise Distance Distribution PDD(A; k) stores, for every point of a
cloud, the sorted distances to its k nearest neighbours; equal rows are
collapsed into weighted rows and the matrix is canonicalized
lexicographically, by array operations on all rows at once.  PDDs are
compared by exact Earth Mover's Distance.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .numcore import INF, _as_index, _check_weights, _pairwise, _real, _rows, emd, norm_exponent


@dataclass(frozen=True)
class PointCloud:
    """A finite unordered set of points in R^n with optional labels."""

    points: np.ndarray
    labels: Optional[Sequence[str]] = None

    def __post_init__(self):
        pts = _rows(self.points, "coordinates")
        if self.labels is not None and len(self.labels) != len(pts):
            raise ValueError("labels do not match points")
        object.__setattr__(self, "points", pts)


def _as_points(A):
    """The (m, n) points of a cloud; a raw array is read through
    ``PointCloud``, so every invariant of a cloud checks it the same way."""
    return (A if isinstance(A, PointCloud) else PointCloud(A)).points


@dataclass(frozen=True)
class WeightedRows:
    """Unordered weighted rows of k sorted distances (PDD-family carrier);
    rows may hold NaN, as the rows that ``collapse_rows`` keeps apart do."""

    weights: np.ndarray
    rows: np.ndarray

    def __post_init__(self):
        r = _rows(self.rows, "rows", finite=False)
        object.__setattr__(self, "weights", _check_weights(self.weights, len(r)))
        object.__setattr__(self, "rows", r)

    @property
    def k(self):
        return self.rows.shape[1]

    def __len__(self):
        return len(self.weights)


def collapse_rows(rows, weights, tol=0.0):
    """Merge rows equal within ``tol`` componentwise; canonical lex order.

    Rows are put in stable lexicographic order and a row is merged into the
    last row kept before it when no entry differs by more than ``tol``; a
    NaN entry never merges.  A merged row's weight is summed from left to
    right, one run position at a time, from the weights as given.
    """
    rows = _rows(rows, "rows", finite=False)
    tol = _real(tol, "tol")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != rows.shape[:1]:
        raise ValueError(f"weights of shape {weights.shape} do not match {len(rows)} rows")
    k = rows.shape[1]
    # Rows are sorted on their leading c columns, doubling c until rows that
    # tie there are equal (a NaN step is never equal), which makes it the
    # full lexicographic order.  Mutual nearest neighbours share their first
    # distance, so the first column of a PDD nearly always ties: c starts at 2.
    c = 2
    while True:
        order = np.lexsort(rows[:, min(c, k) - 1 :: -1].T)
        ordered = rows[order]
        steps = np.abs(ordered[1:] - ordered[:-1])
        gaps = steps.max(axis=1)
        if c >= k:
            break
        # Each pair must differ in a leading step (NaN propagates, as in max)
        # or nowhere.  The two are disjoint, as a leading step > 0 makes the
        # gap > 0 or NaN, so their counts add up to the pairs.  At 80 rows this
        # takes about 5 us; max(axis=1) over strided columns and all() take 10-20.
        lead = functools.reduce(np.maximum, steps.T[:c])
        if np.count_nonzero(lead > 0) + np.count_nonzero(gaps == 0) == len(gaps):
            break
        c *= 2
    rows, weights = ordered, weights[order]
    keep = np.ones(len(rows) + 1, dtype=bool)  # the last entry closes the last run
    keep[1:-1] = ~(gaps <= tol)
    if tol > 0 and (gaps[~keep[1:-1]] > 0).any():
        # merged rows differ: compare each row with the last row kept
        last = rows[0]
        for i in range(1, len(rows)):
            keep[i] = not np.abs(rows[i] - last).max() <= tol
            if keep[i]:
                last = rows[i]
    bounds = np.flatnonzero(keep)
    starts, runs = bounds[:-1], bounds[1:] - bounds[:-1]
    sums = weights[starts]
    for j in range(1, runs.max()):
        longer = runs > j
        sums[longer] += weights[starts[longer] + j]
    return WeightedRows(sums, rows[starts])


def srd(A):
    """Sorted Radial Distances: centroid-to-point distances, decreasing."""
    pts = _as_points(A)
    centre = pts.mean(axis=0)
    d = np.linalg.norm(pts - centre, axis=1)
    return np.sort(d)[::-1]


def spd(A):
    """Sorted Pairwise Distances: all m(m-1)/2 distances, increasing."""
    pts = _as_points(A)
    m = len(pts)
    if m < 2:
        raise ValueError("spd needs at least 2 points")
    d = _pairwise(pts, pts)
    iu = np.triu_indices(m, k=1)
    return np.sort(d[iu])


def pdd(A, k, collapse_tol=0.0):
    """Pointwise Distance Distribution of a finite cloud.

    Each point contributes a row of its k smallest distances to other
    points; equal rows (within ``collapse_tol``) are merged with summed
    weights and the result is stored in lexicographic row order.
    """
    pts = _as_points(A)
    m = len(pts)
    k = _as_index(k, "k")
    if not 1 <= k <= m - 1:
        raise ValueError(f"k must be in [1, {m - 1}], got {k}")
    d = _pairwise(pts, pts)
    np.fill_diagonal(d, np.inf)
    rows = np.sort(d, axis=1)[:, :k]
    weights = np.full(m, 1.0 / m)
    return collapse_rows(rows, weights, collapse_tol)


def pdd_dist(P, Q, q=INF, rms=False):
    """Exact EMD between two PDDs with ground metric L_q on rows.

    With ``rms`` the ground metric is L_2 / sqrt(k).
    """
    if P.k != Q.k:
        raise ValueError("column-count mismatch")
    costs = _pairwise(P.rows, Q.rows, q)
    if rms:
        if norm_exponent(q) != 2.0:
            raise ValueError("RMS ground metric is L_2 / sqrt(k)")
        costs = costs / np.sqrt(P.k)
    value, _ = emd(P.weights, Q.weights, costs)
    return value


def spd_from_pdd(P, m=None):
    """Recover SPD from a full PDD(A; m-1) by pooling and halving entries.

    Each pairwise distance |p_i - p_j| appears in both row i and row j of
    the uncollapsed PDD, so pooling all entries and keeping every other
    sorted value reproduces the sorted pairwise distances.
    """
    m = P.k + 1 if m is None else _as_index(m, "m")
    counts = np.rint(P.weights * m).astype(int)
    if counts.sum() != m or P.k != m - 1:
        raise ValueError("need a full PDD(A; m-1) with inferable row counts")
    pooled = np.repeat(P.rows, counts, axis=0).ravel()
    pooled.sort()
    return pooled[::2]
