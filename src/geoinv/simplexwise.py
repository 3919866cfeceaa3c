"""Simplexwise distributions: RDD/SDD and oriented SCD with strengths.

A Relative Distance Distribution RDD(C; A) describes a base sequence A of h
points by its triangular distance matrix D together with the matrix R of
distances from the base points to all remaining points of the cloud, taken
up to permutations of the base.  SDD(C; h) collects the RDDs of all h-point
bases with weights.  The oriented variant SCD adjoins the origin to (n-1)-
point bases and stores determinant signs made continuous by the strength of
a simplex.

Both invariants share one base-order form.  Each of the h! orders of a base
(``ORDERS``) gives a vector of distances inside the base and a matrix with
one column per remaining point; the order moves both.  A class is
represented by the order with the least rounded key, its columns sorted
lexicographically (``_least``), and two classes are compared by the least,
over the orders of one of them, of the larger of the Chebyshev distance
between the base vectors and the bottleneck distance between the columns.

``_max_metric`` computes that metric for all class pairs of two
distributions in one cost tensor: for every pair and order, the Chebyshev
term, the Chebyshev cost matrix of the columns and the lower bound
max(Chebyshev term, largest row minimum, largest column minimum).  Each pair
visits its orders by increasing bound and stops at the first bound that is
no better than the best value so far; an order whose bound admits a perfect
matching is worth exactly its bound, and only the others search the costs
between the bound and the best value.  The max metrics of two classes are
the 1 x 1 case.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .clouds import _as_points
from .numcore import _feasible, _pairwise, bottleneck_from_costs, emd, lac

#: upper bounds for the strength of a simplex in R^n (degeneracy scale)
LAMBDA = {1: 2.0, 2: 2.0 * np.sqrt(3.0), 3: 0.43}

#: scale-aware zero test for squared simplex volumes
DEGENERATE_REL_TOL = 1e-18

#: the h! orders of a base of h points, one row each, for h = 1, 2, 3
ORDERS = {h: np.array(list(itertools.permutations(range(h)))) for h in (1, 2, 3)}

#: most column-cost cells (class pairs x orders x k x k) built in one numpy
#: step by ``_max_metric``; a block holds at least one class pair
MAX_METRIC_BLOCK = 1 << 16


def _simplices(points):
    """Check one simplex (n+1, n) or a stack (..., n+1, n); return it and n."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[-1]
    if pts.shape[-2] != n + 1:
        raise ValueError(f"need {n + 1} points in R^{n}, got {pts.shape[-2]}")
    if n not in (1, 2, 3):
        raise ValueError("simplices are supported in dimensions 1..3")
    if not np.isfinite(pts).all():
        raise ValueError("non-finite coordinates")
    return pts, n


def strength(points):
    """Strength sigma(A) = V^2 / p^(2n-1) of a simplex on n+1 points in R^n.

    V is the simplex volume (Cayley-Menger determinant) and p the
    half-perimeter; degenerate simplices give 0.  For a segment in R the
    strength is the double length.  ``points`` is one simplex of shape
    (n+1, n), which gives a float, or a stack of shape (..., n+1, n), which
    gives a float array of shape (...).
    """
    pts, n = _simplices(points)
    i, j = np.triu_indices(n + 1, k=1)
    edges = np.linalg.norm(pts[..., i, :] - pts[..., j, :], axis=-1)
    p = 0.5 * edges.sum(axis=-1)
    cm = np.zeros(pts.shape[:-2] + (n + 2, n + 2))
    cm[..., 0, 1:] = cm[..., 1:, 0] = 1.0
    cm[..., 1 + i, 1 + j] = cm[..., 1 + j, 1 + i] = edges**2
    coeff = (-1) ** (n + 1) / (2.0**n * float(math.factorial(n)) ** 2)
    v2 = np.maximum(coeff * np.linalg.det(cm), 0.0)
    zero = (p <= 0.0) | (v2 < DEGENERATE_REL_TOL * edges.max(axis=-1) ** (2 * n))
    out = np.where(zero, 0.0, v2 / np.where(zero, 1.0, p) ** (2 * n - 1))
    return float(out) if out.ndim == 0 else out


def simplex_sign(points):
    """Sign of the determinant of successive difference vectors.

    ``points`` is one simplex of n+1 points in R^n, which gives an int, or a
    stack of shape (..., n+1, n), which gives a float array of shape (...).
    The sign is 0 when the simplex is degenerate: its squared determinant is
    below DEGENERATE_REL_TOL times the largest difference component to the
    power 2n.
    """
    pts, n = _simplices(points)
    diffs = np.swapaxes(np.diff(pts, axis=-2), -1, -2)  # columns are differences
    det = np.linalg.det(diffs)
    scale = np.abs(diffs).max(axis=(-2, -1))
    zero = (scale == 0.0) | (np.abs(det) ** 2 < DEGENERATE_REL_TOL * scale ** (2 * n))
    out = np.where(zero, 0.0, np.sign(det))
    return int(out) if out.ndim == 0 else out


def _round_key(*arrays, decimals=9):
    return tuple(
        tuple(np.round(np.asarray(a, dtype=float), decimals).ravel()) for a in arrays
    )


def _least(candidates):
    """The first of the candidates with the least ``key()``."""
    return min(candidates, key=lambda c: c.key())


def _max_metric(dx, dy, cx, cy, orders):
    """Matrix of the max metric between the classes of X and of Y.

    ``dx``/``cx`` list the base vectors and column matrices of the classes
    of X, ``dy``/``cy`` those of Y, and ``orders`` is a pair of arrays: one
    index map of the base vector and one row map of the columns per order.
    Entry (a, b) is the least over the orders (i, r) of the larger of
    |dx[a][i] - dy[b]|_inf and the bottleneck distance between the columns
    of cx[a][r] and cy[b] under the Chebyshev norm.  Classes of different
    shapes are infinitely far apart.
    """
    shapes = {np.shape(d) for d in (*dx, *dy)}, {np.shape(c) for c in (*cx, *cy)}
    if not (dx and dy) or len(shapes[0]) > 1 or len(shapes[1]) > 1:
        return np.full((len(dx), len(dy)), np.inf)
    dx, dy, cx, cy = (np.array(v, dtype=float) for v in (dx, dy, cx, cy))
    if not all(np.isfinite(v).all() for v in (dx, dy, cx, cy)):
        raise ValueError("non-finite coordinates")
    index, rows = orders
    dx, cx = dx[:, index], cx[:, rows]  # one base vector and column matrix per order
    nx, ny = len(dx), len(dy)
    k = cy.shape[-1]
    out = np.empty(nx * ny)
    step = max(1, MAX_METRIC_BLOCK // max(1, len(index) * k * k))
    for start in range(0, nx * ny, step):
        a, b = np.divmod(np.arange(start, min(start + step, nx * ny)), ny)
        cheb = np.abs(dx[a] - dy[b, None]).max(axis=-1)
        # costs[pair, order, u, v] = max over rows of |x_r[u] - y_r[v]|
        costs = np.abs(cx[a, :, 0, :, None] - cy[b, None, 0, None, :])
        for r in range(1, cy.shape[1]):
            np.maximum(costs, np.abs(cx[a, :, r, :, None] - cy[b, None, r, None, :]), out=costs)
        matched = np.maximum(costs.min(axis=3).max(axis=2), costs.min(axis=2).max(axis=2))
        bound = np.maximum(cheb, matched)
        for p, ranked in enumerate(np.argsort(bound, axis=1, kind="stable")):
            out[start + p] = _least_order_value(costs[p, ranked], bound[p, ranked])
    return out.reshape(nx, ny)


def _least_order_value(costs, bound):
    """Least over orders o of max(term_o, bottleneck(costs[o])), where
    term_o <= bound[o] <= that value, bound[o] is at least the largest row
    and column minimum of costs[o], and the orders come by increasing bound."""
    best = np.inf
    for c, t in zip(costs, bound.tolist()):
        if t >= best:
            break
        if _feasible(c, t):
            return t
        # the order is worth its bottleneck, a cost above t; on the costs
        # clipped to [next cost above t, best] the search gives min(it, best)
        above = c[c > t].min()
        if above < best:
            best = bottleneck_from_costs(np.clip(c, above, best))
    return best


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
    try:
        h = operator.index(h)
    except TypeError:
        raise ValueError(f"order h must be an integer, got {h!r}") from None
    if not 1 <= h <= 3:
        raise ValueError("supported orders are h in {1, 2, 3}")
    if h >= m:
        raise ValueError("h must be smaller than the cloud size")
    d = _pairwise(pts, pts)
    rdds = []
    for base in itertools.combinations(range(m), h):
        D = d[np.ix_(base, base)]
        R = d[np.ix_(base, [i for i in range(m) if i not in base])]
        rdds.append(_least(
            Rdd(D[np.ix_(p, p)], R[p][:, np.lexsort(R[p][::-1])]) for p in ORDERS[h]
        ))
    return Sdd(*_weighted_classes(rdds))


def _rdd_costs(xs, ys):
    """Max-metric matrix between two sequences of RDDs of one order h: an
    order p maps D to D[p][:, p] and R to R[p]."""
    hs = {r.h for r in (*xs, *ys)}
    if len(hs) > 1:
        raise ValueError("incompatible orders h")
    h = max(hs, default=1)
    p = ORDERS[h]
    index = (p[:, :, None] * h + p[:, None, :]).reshape(len(p), -1)
    return _max_metric(
        [r.D.ravel() for r in xs], [r.D.ravel() for r in ys],
        [r.R for r in xs], [r.R for r in ys], (index, p),
    )


def rdd_max_metric(X, Y):
    """Max metric on RDDs: min over base orders of the larger of the
    Chebyshev distance between D matrices and the bottleneck distance
    between R columns."""
    return float(_rdd_costs([X], [Y])[0, 0])


def _distribution_dist(weights_x, weights_y, costs, mode, total_x=None, total_y=None):
    if np.isinf(costs).any():
        raise ValueError("distributions of incompatible sizes")
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
    costs = _rdd_costs(X.rdds, Y.rdds)
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


def _ocd_for_base(pts, base_idx, signs, strengths):
    """The least OCD of one base; ``signs``/``strengths`` hold one row per
    order of the base, for the simplices (ordered base, origin, q)."""
    origin = np.zeros((1, pts.shape[1]))
    base_pts = pts[list(base_idx)]
    rest = pts[[i for i in range(len(pts)) if i not in base_idx]]
    h = len(base_pts)
    # rows: base points then the origin; columns: the same, then the rest
    anchors = np.vstack([base_pts, origin])
    d = _pairwise(anchors, np.vstack([anchors, rest]))

    def candidate(o, p):
        dvec = np.concatenate([d[np.ix_(p, p)][np.triu_indices(h, k=1)], d[p, h]])
        cols = d[np.append(p, h), h + 1 :]
        order = np.lexsort(np.vstack([cols, signs[o]])[::-1])
        return Ocd(dvec, cols[:, order], signs[o][order], strengths[o][order])

    return _least(candidate(o, p) for o, p in enumerate(ORDERS[h]))


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
    bases = np.array(list(itertools.combinations(range(m), n - 1)))
    rest = np.array([[i for i in range(m) if i not in base] for base in bases])
    # one simplex (ordered base, origin, q) per base, order and remaining q
    simplices = np.zeros((len(bases), math.factorial(n - 1), m - n + 1, n + 1, n))
    simplices[..., : n - 1, :] = pts[bases[:, ORDERS[n - 1]]][:, :, None]
    simplices[..., n, :] = pts[rest][:, None]
    signs, strengths = simplex_sign(simplices), strength(simplices)
    ocds = (_ocd_for_base(pts, *args) for args in zip(bases, signs, strengths))
    return Scd(*_weighted_classes(ocds))


def _ocd_costs(xs, ys):
    """Max-metric matrix between two sequences of OCDs.

    Columns are compared as points (distances, sign * strength / lambda_n).
    An order permutes the distances from the base to the origin (``dvec``
    holds the pairwise base distances first, which stay fixed) and the base
    rows of the columns of X; the signs of X are not changed.
    """
    n = max((o.n for o in xs), default=2)
    h, lam = n - 1, LAMBDA[n]
    pair = h * (h - 1) // 2
    p = ORDERS[h]
    index = np.hstack([np.broadcast_to(np.arange(pair), (len(p), pair)), pair + p])
    rows = np.hstack([p, np.broadcast_to([h, h + 1], (len(p), 2))])
    cx, cy = ([np.vstack([o.cols, o.signs * o.strengths / lam]) for o in side] for side in (xs, ys))
    return _max_metric([o.dvec for o in xs], [o.dvec for o in ys], cx, cy, (index, rows))


def ocd_max_metric(X, Y):
    """Max metric on OCDs: base orders are minimized over; columns are
    compared as points (distances, sign * strength / lambda_n) by the
    bottleneck distance (see ``_ocd_costs``)."""
    return float(_ocd_costs([X], [Y])[0, 0])


def scd_dist(X, Y, mode="emd"):
    """Metric between SCDs via EMD or LAC over the OCD max metric."""
    costs = _ocd_costs(X.ocds, Y.ocds)
    return _distribution_dist(X.weights, Y.weights, costs, mode, X.total, Y.total)
