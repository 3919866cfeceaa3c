"""Finite-cloud invariants: sorted radial/pairwise distances and PDD.

The Pointwise Distance Distribution PDD(A; k) stores, for every point of a
cloud, the sorted distances to its k nearest neighbours; equal rows are
collapsed into weighted rows and the matrix is canonicalized
lexicographically.  PDDs are compared by exact Earth Mover's Distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .numcore import INF, _check_weights, _pairwise, emd, norm_exponent


@dataclass(frozen=True)
class PointCloud:
    """A finite unordered set of points in R^n with optional labels."""

    points: np.ndarray
    labels: Optional[Sequence[str]] = None

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0:
            raise ValueError("a cloud needs at least one point")
        if not np.isfinite(pts).all():
            raise ValueError("non-finite coordinates")
        if self.labels is not None and len(self.labels) != len(pts):
            raise ValueError("labels do not match points")
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return len(self.points)

    @property
    def dim(self):
        return self.points.shape[1]


def _as_points(A):
    return A.points if isinstance(A, PointCloud) else np.atleast_2d(
        np.asarray(A, dtype=float)
    )


@dataclass(frozen=True)
class WeightedRows:
    """Unordered weighted rows of k sorted distances (PDD-family carrier)."""

    weights: np.ndarray
    rows: np.ndarray

    def __post_init__(self):
        r = np.atleast_2d(np.asarray(self.rows, dtype=float))
        object.__setattr__(self, "weights", _check_weights(self.weights, len(r)))
        object.__setattr__(self, "rows", r)

    @property
    def k(self):
        return self.rows.shape[1]

    def __len__(self):
        return len(self.weights)


def collapse_rows(rows, weights, tol=0.0):
    """Merge rows equal within ``tol`` componentwise; canonical lex order."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    weights = np.asarray(weights, dtype=float)
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
    if not 1 <= k <= m - 1:
        raise ValueError(f"k must be in [1, {m - 1}], got {k}")
    d = _pairwise(pts, pts)
    np.fill_diagonal(d, np.inf)
    rows = np.sort(d, axis=1)[:, :k]
    weights = np.full(m, 1.0 / m)
    return collapse_rows(rows, weights, collapse_tol)


def row_ground_costs(P, Q, q=INF, rms=False):
    """Ground-metric matrix (L_q between rows) for two WeightedRows."""
    if P.k != Q.k:
        raise ValueError("column-count mismatch")
    costs = _pairwise(P.rows, Q.rows, q)
    if rms:
        qn = norm_exponent(q)
        if qn != 2.0:
            raise ValueError("RMS ground metric is L_2 / sqrt(k)")
        costs = costs / np.sqrt(P.k)
    return costs


def pdd_dist(P, Q, q=INF, rms=False):
    """Exact EMD between two PDDs with ground metric L_q on rows."""
    costs = row_ground_costs(P, Q, q, rms)
    value, _ = emd(P.weights, Q.weights, costs)
    return value


def spd_from_pdd(P, m=None):
    """Recover SPD from a full PDD(A; m-1) by pooling and halving entries.

    Each pairwise distance |p_i - p_j| appears in both row i and row j of
    the uncollapsed PDD, so pooling all entries and keeping every other
    sorted value reproduces the sorted pairwise distances.
    """
    if m is None:
        m = P.k + 1
    counts = np.rint(P.weights * m).astype(int)
    if counts.sum() != m or P.k != m - 1:
        raise ValueError("need a full PDD(A; m-1) with inferable row counts")
    pooled = np.repeat(P.rows, counts, axis=0).ravel()
    pooled.sort()
    return pooled[::2]
