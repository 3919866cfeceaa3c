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
represented by the first order with the least rounded key, its columns
sorted lexicographically, and two classes are compared by the least, over
the orders of one of them, of the larger of the Chebyshev distance between
the base vectors and the bottleneck distance between the columns.

Both directions are array-shaped.  ``_canonical`` builds the forms of all
bases and orders of a cloud in one stack, sorts their columns with one
lexsort, picks the least order of each base and groups the bases into
classes by one lexsort of the least keys.  ``_max_metric`` computes the max
metric for all class pairs of two distributions in one cost tensor: for
every pair and order, the Chebyshev term and the Chebyshev cost matrix of
the columns, whose bottlenecks one stacked ``bottleneck_from_costs`` call
gives.  The max metrics of two classes are the 1 x 1 case.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .clouds import _as_points
from .numcore import PERMS, _as_index, _pairwise, _within, bottleneck_from_costs, emd

#: upper bounds for the strength of a simplex in R^n (degeneracy scale)
LAMBDA = {1: 2.0, 2: 2.0 * np.sqrt(3.0), 3: 0.43}

#: scale-aware zero test for squared simplex volumes
DEGENERATE_REL_TOL = 1e-18

#: the h! orders of a base of h points, one row each, for h = 1, 2, 3
ORDERS = {h: PERMS[h] for h in (1, 2, 3)}

#: most cells built in one numpy step: column costs (class pairs x orders x
#: k x k) in ``_max_metric`` and base-order forms (bases x orders x form
#: length) in ``_canonical``; a block holds at least one pair or base
MAX_METRIC_BLOCK = 1 << 16

#: most cells of one SDD/SCD build (bases x orders x form length) and of one
#: max-metric matrix (class pairs x orders x k x k), checked before either
#: is allocated
SIMPLEX_CELL_BUDGET = 2**23


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

    V is the simplex volume, |det| of the successive difference vectors over
    n!, and p the half-perimeter; degenerate simplices give 0.  For a
    segment in R the strength is the double length.  ``points`` is one
    simplex of shape (n+1, n), which gives a float, or a stack of shape
    (..., n+1, n), which gives a float array of shape (...).
    """
    pts, n = _simplices(points)
    i, j = np.triu_indices(n + 1, k=1)
    edges = np.linalg.norm(pts[..., i, :] - pts[..., j, :], axis=-1)
    p = 0.5 * edges.sum(axis=-1)
    v2 = (np.linalg.det(np.diff(pts, axis=-2)) / math.factorial(n)) ** 2
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


def _round_key(*arrays):
    return tuple(
        tuple(np.round(np.asarray(a, dtype=float), 9).ravel()) for a in arrays
    )


def _bases(m, h):
    """The h-point bases of m points in lexicographic order (bases, h) and
    the remaining points of each in increasing order (bases, m - h).  The
    j-th remaining point of a sorted base is j plus the number of base
    points at or below it, so each of the h >= 1 base points in turn shifts
    up the indices it does not exceed; no (bases, m) mask is built."""
    bases = np.array(list(itertools.combinations(range(m), h)))
    rest = np.arange(m - h)
    for i in range(h):
        rest = rest + (rest >= bases[:, i, None])
    return bases, rest


def _least_forms(head, rows, keyed):
    """The least base-order form of each base of a block.

    ``head`` (bases, orders, a) holds the base vectors and ``rows`` (bases,
    orders, r, k) the column matrices under each order.  A form is the base
    vector followed by the rows, its columns sorted lexicographically by the
    first ``keyed`` rows (one lexsort whose primary key is the (base, order)
    index; later rows are carried along).  The least form of a base is the
    first order whose rounded form is lexicographically least.  Returns
    (bases, a + r k).
    """
    nb, no, r, k = rows.shape
    g = nb * no
    flat = rows.reshape(g, r, k).transpose(1, 0, 2).reshape(r, g * k)
    perm = np.lexsort((*flat[keyed - 1 :: -1], np.repeat(np.arange(g), k)))
    rows = flat[:, perm].reshape(r, g, k).transpose(1, 0, 2)
    forms = np.concatenate([head.reshape(g, -1), rows.reshape(g, r * k)], axis=1)
    forms = forms.reshape(nb, no, -1)
    keys = np.round(forms, 9)
    at, best = np.arange(nb), np.zeros(nb, dtype=int)
    for o in range(1, no):
        new, old = keys[:, o], keys[at, best]
        differ = new != old
        i = differ.argmax(axis=1)
        best[differ[at, i] & (new[at, i] < old[at, i])] = o
    return forms[at, best]


def _canonical(points, m, h, width, forms_of):
    """Classes of the least forms of all h-point bases of the first m points.

    ``forms_of(d, ordered, rest)`` gives ``(head, rows, keyed)`` for
    ``_least_forms`` from the distance matrix ``d`` of all ``points``, the
    ordered bases (bases, orders, h) and the remaining points (bases, m - h)
    of a block; a form has ``width`` cells.
    Classes are the rounded least forms, in first-seen order (one lexsort of
    the rounded forms, then ``!=`` between neighbours).  Returns ``(weights,
    representatives, total)``: the share of bases in each class, a copy of
    the form of its first base, and the number of bases.  Over
    SIMPLEX_CELL_BUDGET form cells raises ValueError before any is built and
    before the distance matrix, which has no more cells than the forms.
    """
    total, orders = math.comb(m, h), ORDERS[h]
    cells = total * len(orders) * width
    _within(cells, SIMPLEX_CELL_BUDGET, lambda: f"the {total} {h}-point bases of {m} points "
            f"need {total} x {len(orders)} orders x {width} = {cells:.3g} form cells")
    d = _pairwise(points, points)
    bases, rest = _bases(m, h)
    forms = np.empty((total, width))
    step = max(1, MAX_METRIC_BLOCK // (len(orders) * width))
    for lo in range(0, total, step):
        block = slice(lo, lo + step)
        forms[block] = _least_forms(*forms_of(d, bases[block][:, orders], rest[block]))
    keys = np.round(forms, 9)
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    starts = np.flatnonzero(np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)])
    first = order[starts]  # the lexsort is stable: the first base of each class
    seen = np.argsort(first)
    counts = np.diff(np.r_[starts, total])[seen]
    return counts / total, forms[first[seen]], total


def _max_metric(dx, dy, cx, cy, orders):
    """Matrix of the max metric between the classes of X and of Y.

    ``dx``/``cx`` list the base vectors and column matrices of the classes
    of X, ``dy``/``cy`` those of Y, and ``orders`` is a pair of arrays: one
    index map of the base vector and one row map of the columns per order.
    Entry (a, b) is the least over the orders (i, r) of the larger of
    |dx[a][i] - dy[b]|_inf and the bottleneck distance between the columns
    of cx[a][r] and cy[b] under the Chebyshev norm.  Classes of different
    shapes are infinitely far apart.  Over SIMPLEX_CELL_BUDGET cost cells
    (class pairs x orders x k x k) raises ValueError before any is built.
    """
    shapes = {np.shape(d) for d in (*dx, *dy)}, {np.shape(c) for c in (*cx, *cy)}
    if not (dx and dy) or len(shapes[0]) > 1 or len(shapes[1]) > 1:
        return np.full((len(dx), len(dy)), np.inf)
    nx, ny, no, k = len(dx), len(dy), len(orders[0]), np.shape(cy[0])[-1]
    cells = nx * ny * no * k * k
    _within(cells, SIMPLEX_CELL_BUDGET, lambda: f"the max metric of {nx} x {ny} classes needs "
            f"{nx} x {ny} x {no} orders x {k} x {k} = {cells:.3g} cost cells")
    dx, dy, cx, cy = (np.array(v, dtype=float) for v in (dx, dy, cx, cy))
    if not all(np.isfinite(v).all() for v in (dx, dy, cx, cy)):
        raise ValueError("non-finite coordinates")
    index, rows = orders
    dx, cx = dx[:, index], cx[:, rows]  # one base vector and column matrix per order
    out = np.empty(nx * ny)
    step = max(1, MAX_METRIC_BLOCK // max(1, no * k * k))
    for start in range(0, nx * ny, step):
        a, b = np.divmod(np.arange(start, min(start + step, nx * ny)), ny)
        cheb = np.abs(dx[a] - dy[b, None]).max(axis=-1)
        # costs[pair, order, u, v] = max over rows of |x_r[u] - y_r[v]|
        costs = np.abs(cx[a, :, 0, :, None] - cy[b, None, 0, None, :])
        for r in range(1, cy.shape[1]):
            np.maximum(costs, np.abs(cx[a, :, r, :, None] - cy[b, None, r, None, :]), out=costs)
        out[start : start + len(a)] = np.maximum(cheb, bottleneck_from_costs(costs)).min(axis=1)
    return out.reshape(nx, ny)


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


def sdd(C, h):
    """Simplexwise Distance Distribution: weighted RDDs of all h-point bases."""
    pts = _as_points(C)
    m = len(pts)
    h = _as_index(h, "order h")
    if not 1 <= h <= 3:
        raise ValueError("supported orders are h in {1, 2, 3}")
    if h >= m:
        raise ValueError("h must be smaller than the cloud size")
    k = m - h

    def forms_of(d, ordered, rest):
        # D[p][:, p] and R[p] of every base and order p, all rows keyed
        D = d[ordered[..., :, None], ordered[..., None, :]]
        return D, d[ordered[..., None], rest[:, None, None]], h

    weights, forms, total = _canonical(pts, m, h, h * h + h * k, forms_of)
    rdds = tuple(Rdd(f[: h * h].reshape(h, h), f[h * h :].reshape(h, k)) for f in forms)
    return Sdd(weights, rdds, total)


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


def _distribution_dist(X, Y, mode, costs_of):
    """EMD between two distributions of classes, or their LAC.

    ``mode`` and the totals are checked before ``costs_of()`` builds the
    cost matrix.  LAC needs equal totals T.  Both weight vectors are then
    counts over T, and by Birkhoff-von Neumann the least assignment cost of
    the T x T costs that repeat each class by its count is the EMD, so LAC
    is computed as the EMD.
    """
    if mode not in ("emd", "lac"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "lac" and (X.total != Y.total or X.total is None):
        raise ValueError("LAC mode needs equal-size distributions")
    costs = costs_of()
    if np.isinf(costs).any():
        raise ValueError("distributions of incompatible sizes")
    value, _ = emd(X.weights, Y.weights, costs)
    return value


def sdd_dist(X, Y, mode="emd"):
    """Metric between SDDs via EMD or LAC over the RDD max metric."""
    return _distribution_dist(X, Y, mode, lambda: _rdd_costs(X.rdds, Y.rdds))


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
    h, k = n - 1, m - n + 1
    i, j = np.triu_indices(h, k=1)
    a = len(i) + h

    def forms_of(d, ordered, rest):
        # dvec: distances inside the ordered base, then from it to the origin
        dvec = np.concatenate([d[ordered[..., i], ordered[..., j]], d[ordered, m]], axis=-1)
        anchors = np.concatenate([ordered, np.full(ordered.shape[:2] + (1,), m)], axis=-1)
        # one simplex (ordered base, origin, q) per base, order and remaining q
        simplices = np.zeros(ordered.shape[:2] + (k, n + 1, n))
        simplices[..., :h, :] = pts[ordered][:, :, None]
        simplices[..., n, :] = pts[rest][:, None]
        rows = np.concatenate([
            d[anchors[..., None], rest[:, None, None]],
            simplex_sign(simplices)[:, :, None],
            strength(simplices)[:, :, None],
        ], axis=2)
        return dvec, rows, n + 1  # columns keyed by distances, then signs

    with_origin = np.vstack([pts, np.zeros((1, n))])  # the origin is point m
    weights, forms, total = _canonical(with_origin, m, h, a + (n + 2) * k, forms_of)
    ocds = tuple(
        Ocd(f[:a], f[a : a + n * k].reshape(n, k), f[a + n * k : a + (n + 1) * k],
            f[a + (n + 1) * k :])
        for f in forms
    )
    return Scd(weights, ocds, total)


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
    return _distribution_dist(X, Y, mode, lambda: _ocd_costs(X.ocds, Y.ocds))
