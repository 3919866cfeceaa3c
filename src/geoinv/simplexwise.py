"""Simplexwise distributions: RDD/SDD and oriented SCD with strengths.

A Relative Distance Distribution RDD(C; A) describes a base sequence A of h
points by its triangular distance matrix D together with the matrix R of
distances from the base points to all remaining points of the cloud, taken
up to permutations of the base.  SDD(C; h) collects the RDDs of all h-point
bases with weights.  The oriented variant SCD adjoins the origin to (n-1)-
point bases and stores determinant signs made continuous by the strength of
a simplex.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .clouds import _as_points
from .numcore import INF, _pairwise, bottleneck_from_costs, emd, lac

#: upper bounds for the strength of a simplex in R^n (degeneracy scale)
LAMBDA = {1: 2.0, 2: 2.0 * np.sqrt(3.0), 3: 0.43}

#: scale-aware zero test for squared simplex volumes
DEGENERATE_REL_TOL = 1e-18


def cayley_menger_vol2(points):
    """Squared volume of the simplex on n+1 points in R^n (Cayley-Menger)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[0] - 1
    sq = _pairwise(pts, pts) ** 2
    cm = np.ones((n + 2, n + 2))
    cm[0, 0] = 0.0
    cm[1:, 1:] = sq
    det = np.linalg.det(cm)
    coeff = (-1) ** (n + 1) / (2.0**n * float(math.factorial(n)) ** 2)
    return max(coeff * det, 0.0)


def strength(points):
    """Strength sigma(A) = V^2 / p^(2n-1) of a simplex on n+1 points in R^n.

    V is the simplex volume and p the half-perimeter; degenerate simplices
    give 0.  For a segment in R the strength is the double length.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[1]
    if pts.shape[0] != n + 1:
        raise ValueError(f"need {n + 1} points in R^{n}, got {pts.shape[0]}")
    if n not in (1, 2, 3):
        raise ValueError("strength supports dimensions 1..3")
    d = _pairwise(pts, pts)
    p = 0.5 * d[np.triu_indices(n + 1, k=1)].sum()
    if p <= 0.0:
        return 0.0
    v2 = cayley_menger_vol2(pts)
    if v2 < DEGENERATE_REL_TOL * d.max() ** (2 * n):
        return 0.0
    return float(v2 / p ** (2 * n - 1))


def simplex_sign(points):
    """Sign of the determinant of successive difference vectors.

    ``points`` is a sequence of n+1 points in R^n; the sign is 0 when the
    simplex is degenerate under the scale-aware strength test.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[1]
    diffs = np.diff(pts, axis=0).T  # n x n columns
    det = np.linalg.det(diffs)
    scale = max(np.abs(diffs).max(), 0.0)
    if scale == 0.0 or abs(det) ** 2 < DEGENERATE_REL_TOL * scale ** (2 * n):
        return 0
    return 1 if det > 0 else -1


def _round_key(*arrays, decimals=9):
    return tuple(
        tuple(np.round(np.asarray(a, dtype=float), decimals).ravel()) for a in arrays
    )


@dataclass(frozen=True)
class Rdd:
    """Canonical representative of an RDD class under base permutations.

    ``D`` is the h x h distance matrix of the base; ``R`` the h x (m-h)
    matrix of distances from base points to the remaining points with
    columns in lexicographic order.
    """

    D: np.ndarray
    R: np.ndarray

    @property
    def h(self):
        return self.D.shape[0]

    def key(self):
        return _round_key(self.D, self.R)


def _canonical_rdd(D, R):
    """Lexicographically minimal representative over base permutations."""
    h = D.shape[0]
    best = None
    for perm in itertools.permutations(range(h)):
        p = list(perm)
        Dp = D[np.ix_(p, p)]
        Rp = R[p]
        order = np.lexsort(Rp[::-1]) if Rp.size else np.array([], dtype=int)
        Rp = Rp[:, order]
        key = _round_key(Dp, Rp)
        if best is None or key < best[0]:
            best = (key, Dp, Rp)
    return Rdd(best[1], best[2])


@dataclass(frozen=True)
class Sdd:
    """Weighted unordered collection of RDDs of a fixed order h."""

    weights: np.ndarray
    rdds: tuple
    total: int  # number of h-point bases C(m, h)

    def __len__(self):
        return len(self.rdds)


def _weighted_classes(items):
    """Group items by ``key()`` in first-seen order.

    Returns ``(weights, representatives, total)``: the share of items in
    each class, the first item of each class, and the number of items.
    """
    groups = {}
    for item in items:
        groups.setdefault(item.key(), [0, item])[0] += 1
    total = sum(count for count, _ in groups.values())
    weights = np.array([count / total for count, _ in groups.values()])
    return weights, tuple(rep for _, rep in groups.values()), total


def sdd(C, h):
    """Simplexwise Distance Distribution: weighted RDDs of all h-point bases."""
    pts = _as_points(C)
    m = len(pts)
    if not 1 <= h <= 3:
        raise ValueError("supported orders are h in {1, 2, 3}")
    if h >= m:
        raise ValueError("h must be smaller than the cloud size")
    d = _pairwise(pts, pts)
    rdds = (
        _canonical_rdd(
            d[np.ix_(base, base)],
            d[np.ix_(base, [i for i in range(m) if i not in base])],
        )
        for base in itertools.combinations(range(m), h)
    )
    return Sdd(*_weighted_classes(rdds))


def rdd_max_metric(X, Y):
    """Max metric on RDDs: min over base permutations of the larger of the
    Chebyshev distance between D matrices and the bottleneck distance
    between R columns."""
    if X.h != Y.h:
        raise ValueError("incompatible orders h")
    if X.R.shape[1] != Y.R.shape[1]:
        return float("inf")
    h = X.h
    best = np.inf
    for perm in itertools.permutations(range(h)):
        p = list(perm)
        d1 = np.abs(X.D[np.ix_(p, p)] - Y.D).max() if h > 1 else 0.0
        if X.R.size:
            costs = _pairwise(X.R[p].T, Y.R.T, INF)
            d2 = bottleneck_from_costs(costs)
        else:
            d2 = 0.0
        best = min(best, max(d1, d2))
    return float(best)


def _distribution_dist(weights_x, weights_y, costs, mode, total_x=None, total_y=None):
    if mode == "emd":
        value, _ = emd(weights_x, weights_y, costs)
        return value
    if mode == "lac":
        if total_x != total_y or total_x is None:
            raise ValueError("LAC mode needs equal-size distributions")
        cx = np.rint(np.asarray(weights_x) * total_x).astype(int)
        cy = np.rint(np.asarray(weights_y) * total_y).astype(int)
        expanded = np.repeat(np.repeat(costs, cx, axis=0), cy, axis=1)
        return lac(expanded)
    raise ValueError(f"unknown mode {mode!r}")


def sdd_dist(X, Y, mode="emd"):
    """Metric between SDDs via EMD or LAC over the RDD max metric."""
    costs = np.array(
        [[rdd_max_metric(a, b) for b in Y.rdds] for a in X.rdds]
    )
    if np.isinf(costs).any():
        raise ValueError("SDDs of incompatible sizes")
    return _distribution_dist(X.weights, Y.weights, costs, mode, X.total, Y.total)


@dataclass(frozen=True)
class Ocd:
    """Oriented Centre Distribution of one base: distances, signs, strengths.

    ``dvec`` holds the distances within the base (adjoined with the origin),
    ``cols`` the n distances of every remaining point to the base points and
    the origin, ``signs``/``strengths`` the orientation data per column.
    """

    dvec: np.ndarray
    cols: np.ndarray
    signs: np.ndarray
    strengths: np.ndarray

    @property
    def n(self):
        return self.cols.shape[0]

    def key(self):
        return _round_key(self.dvec, self.cols, self.signs, self.strengths)

    def mirror(self):
        return Ocd(self.dvec, self.cols, -self.signs, self.strengths)


def _ocd_for_base(pts, base_idx):
    origin = np.zeros((1, pts.shape[1]))
    base_pts = pts[list(base_idx)]
    rest = pts[[i for i in range(len(pts)) if i not in base_idx]]
    h = len(base_pts)
    # rows: base points then the origin; columns: the same, then the rest
    anchors = np.vstack([base_pts, origin])
    d = _pairwise(anchors, np.vstack([anchors, rest]))
    best = None
    for perm in itertools.permutations(range(h)):
        p = list(perm)
        bp = base_pts[p]
        dvec = np.concatenate([d[np.ix_(p, p)][np.triu_indices(h, k=1)], d[p, h]])
        cols = d[p + [h], h + 1 :]
        seqs = [np.vstack([bp, origin, q]) for q in rest]
        signs = np.array([simplex_sign(seq) for seq in seqs], dtype=float)
        strengths = np.array([strength(seq) for seq in seqs], dtype=float)
        full = np.vstack([cols, signs[None, :]])
        order = np.lexsort(full[::-1]) if full.size else np.array([], dtype=int)
        ocd = Ocd(dvec, cols[:, order], signs[order], strengths[order])
        key = ocd.key()
        if best is None or key < best[0]:
            best = (key, ocd)
    return best[1]


@dataclass(frozen=True)
class Scd:
    """Weighted unordered collection of OCDs (one per (n-1)-point base)."""

    weights: np.ndarray
    ocds: tuple
    total: int

    def __len__(self):
        return len(self.ocds)

    def mirror(self):
        return Scd(self.weights, tuple(o.mirror() for o in self.ocds), self.total)


def scd(C, center=True):
    """Simplexwise Centre Distribution of a cloud in R^2 or R^3.

    Adjoins the origin (the centroid when ``center`` is true) to every base
    of n-1 points and records distances, orientation signs and strengths of
    the resulting simplices, canonicalized under base permutations.
    """
    pts = _as_points(C)
    n = pts.shape[1]
    if n not in (2, 3):
        raise ValueError("scd supports dimensions 2 and 3")
    if center:
        pts = pts - pts.mean(axis=0)
    m = len(pts)
    if m < n:
        raise ValueError("cloud too small for an (n-1)-point base")
    ocds = (_ocd_for_base(pts, base) for base in itertools.combinations(range(m), n - 1))
    return Scd(*_weighted_classes(ocds))


def ocd_max_metric(X, Y):
    """Max metric on OCDs: base permutations are minimized over; columns are
    compared as points (distances, sign * strength / lambda_n) by the
    bottleneck distance."""
    if X.cols.shape != Y.cols.shape or X.dvec.shape != Y.dvec.shape:
        return float("inf")
    n = X.n
    h = n - 1
    lam = LAMBDA[n]
    best = np.inf
    for perm in itertools.permutations(range(h)):
        if h == 1:
            dvec_x = X.dvec
        else:
            # dvec layout: pairwise base distances then distances to origin
            pair = X.dvec[: h * (h - 1) // 2]
            orig = X.dvec[h * (h - 1) // 2 :][list(perm)]
            dvec_x = np.concatenate([pair, orig])
        d1 = np.abs(dvec_x - Y.dvec).max()
        if X.cols.shape[1]:
            px = np.vstack(
                [
                    X.cols[list(perm)],
                    X.cols[h : h + 1],
                    (X.signs * X.strengths / lam)[None, :],
                ]
            )
            py = np.vstack([Y.cols, (Y.signs * Y.strengths / lam)[None, :]])
            costs = _pairwise(px.T, py.T, INF)
            d2 = bottleneck_from_costs(costs)
        else:
            d2 = 0.0
        best = min(best, max(d1, d2))
    return float(best)


def scd_dist(X, Y, mode="emd"):
    """Metric between SCDs via EMD or LAC over the OCD max metric."""
    costs = np.array([[ocd_max_metric(a, b) for b in Y.ocds] for a in X.ocds])
    if np.isinf(costs).any():
        raise ValueError("SCDs of incompatible sizes")
    return _distribution_dist(X.weights, Y.weights, costs, mode, X.total, Y.total)
