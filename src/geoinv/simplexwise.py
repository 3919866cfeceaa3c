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
classes by one sort of the least keys, each viewed as one byte string.
The signs and strengths of SCD read one determinant per simplex
(``_signs_strengths``).  ``_max_metric`` gives the max metric of the
class pairs of two distributions on demand (``_Costs``): lower bounds for
all pairs with no k x k cost matrix (the largest gap between the sorted
rows of the columns), bounds from the cost matrices of
chosen pairs with no search, and exact entries, whose orders are taken best
first by their bounds and whose bottlenecks stacked
``bottleneck_from_costs`` calls give.  The max metrics of two classes are
the 1 x 1 case.

A distance between two distributions of m > 1 classes of one weight 1/m is
an optimal assignment of the classes, taken bound-first
(``numcore.emd_from_bounds``): the assignment is solved on the lower
bounds, only the class pairs that an optimal assignment can still use are
taken exactly, and it is solved again until it uses exact entries only.
An assignment optimal for a matrix below C that equals C on its own entries
is optimal for C, so the value is the EMD of the whole matrix.  Near copies
take about m max metrics instead of m^2, most of them certified by their
bounds with no search; unrelated clouds, whose bounds leave more than half
of the pairs, and merged classes (unequal weights) take the whole matrix.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .clouds import _as_points
from .numcore import (
    PERMS, _argmin_map, _as_index, _pairwise, _within, bottleneck_from_costs,
    emd, emd_from_bounds,
)

#: upper bounds for the strength of a simplex in R^n (degeneracy scale)
LAMBDA = {1: 2.0, 2: 2.0 * np.sqrt(3.0), 3: 0.43}

#: scale-aware zero test for squared simplex volumes
DEGENERATE_REL_TOL = 1e-18

#: the h! orders of a base of h points, one row each, for h = 1, 2, 3
ORDERS = {h: PERMS[h] for h in (1, 2, 3)}

#: the edges (i, j), i < j, of a simplex on n + 1 points, for n = 0..3
EDGES = {n: np.triu_indices(n + 1, k=1) for n in range(4)}

#: most cells built in one numpy step: column costs (class pairs x k x k,
#: one order each) and lower-bound terms in ``_Costs`` and base-order forms
#: (bases x orders x form length) in ``_canonical``; a block holds at least
#: one pair or base
MAX_METRIC_BLOCK = 1 << 16

#: most cells of one SDD/SCD build (bases x orders x form length) and of one
#: max-metric matrix (class pairs x orders x k x k), checked before either
#: is allocated; a build at the budget holds about 16 bytes per form cell,
#: the forms with the distance matrix and then with their rounded keys
#: (131 MiB above the import for an h = 1 build of 2 896 points, 8.4e6
#: cells; 211 MiB at peak in all), and a distance one block of
#: MAX_METRIC_BLOCK cost cells at a time
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


def _signs_strengths(pts, n):
    """The ``simplex_sign`` and ``strength`` float arrays (...) of a checked
    stack (..., n+1, n), both from one determinant of the successive
    difference vectors (the rows)."""
    diffs = np.diff(pts, axis=-2)
    det = np.linalg.det(diffs)
    scale = np.abs(diffs).max(axis=(-2, -1))
    zero = (scale == 0.0) | (np.abs(det) ** 2 < DEGENERATE_REL_TOL * scale ** (2 * n))
    sign = np.where(zero, 0.0, np.sign(det))
    i, j = EDGES[n]
    edges = np.linalg.norm(pts[..., i, :] - pts[..., j, :], axis=-1)
    p = 0.5 * edges.sum(axis=-1)
    v2 = (det / math.factorial(n)) ** 2
    zero = (p <= 0.0) | (v2 < DEGENERATE_REL_TOL * edges.max(axis=-1) ** (2 * n))
    return sign, np.where(zero, 0.0, v2 / np.where(zero, 1.0, p) ** (2 * n - 1))


def strength(points):
    """Strength sigma(A) = V^2 / p^(2n-1) of a simplex on n+1 points in R^n.

    V is the simplex volume, |det| of the successive difference vectors over
    n!, and p the half-perimeter; degenerate simplices (V^2 below
    DEGENERATE_REL_TOL times the longest edge to the power 2n) give 0.  For
    a segment in R the strength is the double length.  ``points`` is one
    simplex of shape (n+1, n), which gives a float, or a stack of shape
    (..., n+1, n), which gives a float array of shape (...).
    """
    out = _signs_strengths(*_simplices(points))[1]
    return float(out) if out.ndim == 0 else out


def simplex_sign(points):
    """Sign of the determinant of successive difference vectors.

    ``points`` is one simplex of n+1 points in R^n, which gives an int, or a
    stack of shape (..., n+1, n), which gives a float array of shape (...).
    The determinant is the one ``strength`` reads, and the sign is 0 when
    the simplex is degenerate: its squared determinant is below
    DEGENERATE_REL_TOL times the largest difference component to the power
    2n.
    """
    out = _signs_strengths(*_simplices(points))[0]
    return int(out) if out.ndim == 0 else out


def _round_key(*arrays):
    return tuple(
        tuple(np.round(np.asarray(a, dtype=float), 9).ravel()) for a in arrays
    )


def _bases(m, h):
    """The h-point bases of m points in lexicographic order (bases, h)."""
    return np.array(list(itertools.combinations(range(m), h)))


def _rest(bases, m):
    """The remaining points of each of a block of sorted bases (bases, h) of
    m points, in increasing order (bases, m - h).  The j-th remaining point
    is j plus the number of base points at or below it, so each of the
    h >= 1 base points in turn shifts up the indices it does not exceed; no
    (bases, m) mask is built."""
    rest = np.arange(m - bases.shape[1])
    for i in range(bases.shape[1]):
        rest = rest + (rest >= bases[:, i, None])
    return rest


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
    Classes are the rounded least forms, in first-seen order: one stable
    sort of the rounded forms, each viewed as a byte string of ``width`` x 8
    bytes, then ``!=`` between sorted neighbours, a block of rows at a time,
    so that no sorted copy of the keys is built.  Any order that puts equal
    rows together, the first base of each class first, gives the same
    classes; -0.0 is made +0.0 first, so equal keys have equal bytes (a key
    holding NaN, a strength that overflows, differs from every key under
    ``!=`` and is a class of its own).  The remaining points of the bases
    are taken block by block (``_rest``), and the distance matrix is dropped
    before the keys are rounded.  Returns ``(weights, representatives,
    total)``: the share of bases in each class, a copy of the form of its
    first base, and the number of bases.  Over
    SIMPLEX_CELL_BUDGET form cells raises ValueError before any is built and
    before the distance matrix, which has no more cells than the forms.
    """
    total, orders = math.comb(m, h), ORDERS[h]
    cells = total * len(orders) * width
    _within(cells, SIMPLEX_CELL_BUDGET, lambda: f"the {total} {h}-point bases of {m} points "
            f"need {total} x {len(orders)} orders x {width} = {cells:.3g} form cells")
    d = _pairwise(points, points)
    bases = _bases(m, h)
    forms = np.empty((total, width))
    step = max(1, MAX_METRIC_BLOCK // (len(orders) * width))
    for lo in range(0, total, step):
        block = bases[lo : lo + step]
        forms[lo : lo + step] = _least_forms(*forms_of(d, block[:, orders], _rest(block, m)))
    del d  # as large as the forms at h = 1
    keys = np.round(forms, 9)
    keys += 0.0  # -0.0 becomes +0.0, so equal keys have equal bytes
    order = np.argsort(keys.view(np.dtype((np.void, 8 * width))).ravel(), kind="stable")
    # a class starts where a sorted key differs from its predecessor,
    # compared a block of rows at a time
    differs = np.ones(total, dtype=bool)
    step = max(1, MAX_METRIC_BLOCK // width)
    for lo in range(1, total, step):
        rows, before = order[lo : lo + step], order[lo - 1 : lo + step - 1]
        differs[lo : lo + len(rows)] = (keys[rows] != keys[before[: len(rows)]]).any(axis=1)
    del keys
    starts = np.flatnonzero(differs)
    first = order[starts]  # the sort is stable: the first base of each class
    seen = np.argsort(first)
    counts = np.diff(starts, append=total)[seen]
    return counts / total, forms[first[seen]], total


def _max_metric(dx, dy, cx, cy, orders):
    """Max metric between the classes of X and of Y, on demand.

    ``dx``/``cx`` list (or stack) the base vectors and column matrices of
    the classes of X, ``dy``/``cy`` those of Y, and ``orders`` is a pair of
    arrays: one index map of the base vector and one row map of the columns
    per order.  Entry (a, b) is the least over the orders (i, r) of the
    larger of |dx[a][i] - dy[b]|_inf and the bottleneck distance between the
    columns of cx[a][r] and cy[b] under the Chebyshev norm.  Returns a
    ``_Costs`` that gives lower bounds, bounds on chosen entries, exact
    entries and the whole matrix.  Classes of different shapes are
    infinitely far apart: then the matrix itself, all infinite, is
    returned.  Over SIMPLEX_CELL_BUDGET cost cells (class pairs x orders x
    k x k, the whole matrix) raises ValueError before any is built.
    """
    if not (len(dx) and len(dy)) or len(_shapes(dx) | _shapes(dy)) > 1 or len(
            _shapes(cx) | _shapes(cy)) > 1:
        return np.full((len(dx), len(dy)), np.inf)
    nx, ny, no, k = len(dx), len(dy), len(orders[0]), np.shape(cy[0])[-1]
    cells = nx * ny * no * k * k
    _within(cells, SIMPLEX_CELL_BUDGET, lambda: f"the max metric of {nx} x {ny} classes needs "
            f"{nx} x {ny} x {no} orders x {k} x {k} = {cells:.3g} cost cells")
    dx, dy, cx, cy = (np.asarray(v, dtype=float) for v in (dx, dy, cx, cy))
    if not all(np.isfinite(v).all() for v in (dx, dy, cx, cy)):
        raise ValueError("non-finite coordinates")
    return _Costs(dx, dy, cx, cy, orders)


def _shapes(arrays):
    """The shapes of a list of arrays, or of the rows of one stacked array."""
    if isinstance(arrays, np.ndarray):
        return {arrays.shape[1:]}
    return {a.shape for a in arrays}


class _Costs:
    """The max-metric matrix C of ``_max_metric``, by bounds and entry by entry.

    Built from the checked arrays ``dx`` (nx, a), ``dy`` (ny, a), ``cx``
    (nx, r, k), ``cy`` (ny, r, k) and the orders.  An entry is the least
    over the orders of the larger of the Chebyshev term |dx[index] - dy|_inf
    and the bottleneck of the columns, the least over matchings of the
    largest Chebyshev cost.  Bounds on that bottleneck:

    - with no k x k cost matrix, from below, the largest gap between the
      sorted rows: matching the sorted values of one row in order is a
      least bottleneck matching of that row, whose costs are at most the
      Chebyshev costs (rounding keeps this, as fl(|x - y|) grows with
      |x - y|);
    - from a cost matrix, from below, the larger of the largest row minimum
      and the largest column minimum, which is exact where the row- or
      column-argmin map certifies it (see ``numcore._argmin_map``), and
      from above, the cost of matching the columns in their canonical
      (lexicographic) order.

    Every step works in blocks of at most MAX_METRIC_BLOCK cost cells.
    """

    def __init__(self, dx, dy, cx, cy, orders):
        index, rows = orders
        self.shape = len(dx), len(dy)
        self._args = dx, dy, cx, cy, orders
        # one base vector and column matrix per order of X: (nx, orders, ...)
        self.dx, self.dy, self.cx, self.cy = dx[:, index], dy, cx[:, rows], cy
        self._per_order = None  # the lower bounds of each order (orders, nx, ny)

    def transposed(self):
        """The ``_Costs`` of C.T, the classes of Y against those of X.  Its
        order o pairs the same cells as the inverse order of o here (see
        ``lower``), so it takes the bounds per order of this one, transposed."""
        dx, dy, cx, cy, orders = self._args
        out = _Costs(dy, dx, cy, cx, orders)
        if self._per_order is not None:
            rows = orders[1]  # inverse[o]: the order whose row map inverts that of o
            inverse = (rows == np.argsort(rows, axis=1)[:, None]).all(axis=-1).argmax(axis=1)
            out._per_order = self._per_order[inverse].transpose(0, 2, 1)
        return out

    def lower(self):
        """Lower bounds L <= C: the least over the orders of the larger of
        the Chebyshev term and the largest sorted-row gap.  The orders are
        closed under inverses, and the inverse order pairs the same cells,
        so L of (Y, X) is exactly L of (X, Y) transposed."""
        if self._per_order is None:
            self._per_order = self._bounds_per_order()
        return self._per_order.min(axis=0)

    def _bounds_per_order(self):
        """The lower bounds of ``lower`` under each order (orders, nx, ny)."""
        (nx, no), ny = self.dx.shape[:2], len(self.dy)
        # the cells (sorted rows, then the base vector) first and the
        # classes of Y last, so that every numpy step runs along ny:
        # (cells, orders, nx) against (cells, ny)
        x = np.concatenate([np.sort(self.cx, axis=-1).reshape(nx, no, -1).T, self.dx.T])
        y = np.concatenate([np.sort(self.cy, axis=-1).reshape(ny, -1).T, self.dy.T])
        out = np.empty((no, nx, ny))
        step = max(1, MAX_METRIC_BLOCK // (no * ny * len(y)))
        for lo in range(0, nx, step):
            block = slice(lo, lo + step)
            terms = np.abs(x[:, :, block, None] - y[:, None, None, :])
            terms.max(axis=0, out=out[:, block])
        return out

    def bounds(self, a, b):
        """Bounds lo <= C[a, b] <= hi on the entries of two index arrays,
        with no search.  hi is the term of the best order of each pair (the
        least bound of ``lower``) under an upper bound on the bottleneck of
        its columns: the larger of the largest row and column minima where
        the row- or column-argmin map certifies it, else the cost of
        matching the columns in their canonical order.  Where that bound is
        the larger minimum (then it is the bottleneck) and every other
        order's bound is at least hi, lo = hi = C[a, b]; elsewhere lo is the
        least bound."""
        bound, ranked = self._ranked(a, b)
        lo, hi = bound.min(axis=1), np.empty(len(a))
        rest = None  # the least bound of the other orders
        if bound.shape[1] > 1:
            rest = np.take_along_axis(bound, ranked[:, 1:2], axis=1)[:, 0]
        for block, cheb, costs in self._terms(a, b, ranked[:, 0]):
            least = np.maximum(costs.min(axis=2).max(axis=1), costs.min(axis=1).max(axis=1))
            above = costs.diagonal(axis1=1, axis2=2).max(axis=1)
            open_ = np.flatnonzero(above > least)  # the canonical matching may not be least
            if len(open_):
                sub = costs[open_]
                certified = _argmin_map(sub)[1] | _argmin_map(sub.swapaxes(1, 2))[1]
                above[open_[certified]] = least[open_[certified]]
            hi[block] = np.maximum(cheb, above)
            known = above == least
            if rest is not None:
                known &= rest[block] >= hi[block]
            lo[block][known] = hi[block][known]
        return lo, hi

    def exact(self, a, b):
        """The entries C[a, b] of two index arrays: the least over the orders
        of the larger of the Chebyshev term and the bottleneck of the
        columns.  The orders of each pair are taken best first, by the
        bounds of ``lower``, and an order is searched only where its bound
        is below the least term found so far; each round is one stacked
        ``bottleneck_from_costs`` call per block."""
        bound, ranked = self._ranked(a, b)
        out = np.empty(len(a))
        for block, cheb, costs in self._terms(a, b, ranked[:, 0]):
            out[block] = np.maximum(cheb, bottleneck_from_costs(costs))
        for o in ranked.T[1:]:
            todo = np.flatnonzero(bound[np.arange(len(a)), o] < out)
            for block, cheb, costs in self._terms(a[todo], b[todo], o[todo]):
                at = todo[block]
                out[at] = np.minimum(out[at], np.maximum(cheb, bottleneck_from_costs(costs)))
        return out

    def _ranked(self, a, b):
        """The bounds of ``lower`` on each order of the class pairs (a, b),
        (pairs, orders), and the orders of each pair, best first."""
        if self._per_order is None:
            self._per_order = self._bounds_per_order()
        bound = self._per_order[:, a, b].T
        return bound, np.argsort(bound, axis=1, kind="stable")

    def _terms(self, i, j, o):
        """For each block of at most MAX_METRIC_BLOCK cost cells of the class
        pairs (i, j) under the orders o of X: its slice, the Chebyshev terms
        and the Chebyshev cost matrices of the columns (k, k)."""
        k = self.cx.shape[-1]
        step = max(1, MAX_METRIC_BLOCK // (k * k))
        for lo in range(0, len(i), step):
            block = slice(lo, lo + step)
            x, y = self.cx[i[block], o[block]], self.cy[j[block]]
            cheb = np.abs(self.dx[i[block], o[block]] - self.dy[j[block]]).max(axis=-1)
            # costs[t, u, v] = max over rows r of |x_r[u] - y_r[v]|
            costs = np.abs(x[:, 0, :, None] - y[:, 0, None, :])
            for row in range(1, x.shape[1]):
                np.maximum(costs, np.abs(x[:, row, :, None] - y[:, row, None, :]), out=costs)
            yield slice(lo, lo + len(x)), cheb, costs

    def full(self):
        """The whole matrix C (nx, ny)."""
        nx, ny = self.shape
        return self.exact(*np.divmod(np.arange(nx * ny), ny)).reshape(nx, ny)


def _full(costs):
    """The matrix of a ``_max_metric`` result."""
    return costs if isinstance(costs, np.ndarray) else costs.full()


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


def _rdd_metric(xs, ys):
    """Max metric between two sequences of RDDs of one order h, as
    ``_max_metric`` gives it: an order p maps D to D[p][:, p] and R to R[p]."""
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


def _rdd_costs(xs, ys):
    """Max-metric matrix between two sequences of RDDs of one order h."""
    return _full(_rdd_metric(xs, ys))


def rdd_max_metric(X, Y):
    """Max metric on RDDs: min over base orders of the larger of the
    Chebyshev distance between D matrices and the bottleneck distance
    between R columns."""
    return float(_rdd_costs([X], [Y])[0, 0])


def _distribution_dist(X, Y, mode, costs_of):
    """EMD between two distributions of classes, or their LAC.

    ``mode`` and the totals are checked before ``costs_of()`` gives the
    costs: a whole matrix, which goes to ``emd``, or a lazy ``_Costs``,
    which goes to ``emd_from_bounds``.  LAC needs equal totals T.  Both
    weight vectors are then counts over T, and by Birkhoff-von Neumann the
    least assignment cost of the T x T costs that repeat each class by its
    count is the EMD, so LAC is computed as the EMD.

    Bound-first rule.  When both distributions have m > 1 classes of one
    weight 1/m (equal weight vectors), the EMD is an optimal assignment of
    the classes (Birkhoff-von Neumann), and ``emd_from_bounds`` takes it
    from the bounds of ``_Costs`` with no cost matrix for most class pairs:

    - it solves the assignment σ on the lower bounds L <= C;
    - the cost U of σ under upper bounds, with no search, is at least the
      optimum, and a pair (i, j) whose L_ij plus the least bounds of the
      other rows (or columns) is over U is in no optimal assignment;
    - the other pairs are taken exactly in one call (those of σ whose
      bounds meet are exact already), and the assignment is solved again
      on C where known and L elsewhere until it uses exact entries only.
      That matrix is at most C entrywise and equals C on the final σ, so no
      assignment beats σ under C.

    Near copies then take about m max metrics instead of m².  The whole
    matrix is built and solved by ``emd``'s uniform branch when more than
    half of the pairs stay candidates (unrelated clouds), and it goes to
    ``emd`` itself for merged classes (unequal weights: the LP path),
    unequal class counts and one-class distributions.  Both argument orders
    run the same steps on the same matrix, C or C.T, whichever has the
    lower bounds of lesser bytes, so the value is exactly symmetric; the
    assigned costs are summed exactly, as ``emd`` sums them, so it is
    ``emd``'s float on C, and only where several assignments are optimal may
    it sum another one, within 1e-12 relative.
    """
    if mode not in ("emd", "lac"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "lac" and (X.total != Y.total or X.total is None):
        raise ValueError("LAC mode needs equal-size distributions")
    costs = costs_of()
    if isinstance(costs, _Costs):
        return emd_from_bounds(X.weights, Y.weights, costs)
    if np.isinf(costs).any():
        raise ValueError("distributions of incompatible sizes")
    value, _ = emd(X.weights, Y.weights, costs)
    return value


def sdd_dist(X, Y, mode="emd"):
    """Metric between SDDs via EMD or LAC over the RDD max metric."""
    return _distribution_dist(X, Y, mode, lambda: _rdd_metric(X.rdds, Y.rdds))


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
    i, j = EDGES[h - 1]  # the pairs of base points
    a = len(i) + h

    def forms_of(d, ordered, rest):
        # dvec: distances inside the ordered base, then from it to the origin
        dvec = np.concatenate([d[ordered[..., i], ordered[..., j]], d[ordered, m]], axis=-1)
        anchors = np.concatenate([ordered, np.full(ordered.shape[:2] + (1,), m)], axis=-1)
        # one simplex (ordered base, origin, q) per base, order and remaining q
        simplices = np.zeros(ordered.shape[:2] + (k, n + 1, n))
        simplices[..., :h, :] = pts[ordered][:, :, None]
        simplices[..., n, :] = pts[rest][:, None]
        signs, strengths = _signs_strengths(simplices, n)
        rows = np.concatenate([
            d[anchors[..., None], rest[:, None, None]], signs[:, :, None],
            strengths[:, :, None],
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


def _ocd_metric(xs, ys):
    """Max metric between two sequences of OCDs, as ``_max_metric`` gives it.

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
    return _max_metric([o.dvec for o in xs], [o.dvec for o in ys], _points(xs, lam),
                       _points(ys, lam), (index, rows))


def _points(ocds, lam):
    """The columns of OCDs as points, one stack (classes, n + 1, k) when
    all have one shape: the distances, then sign * strength / lam."""
    cols = [o.cols for o in ocds]
    if len(_shapes(cols)) != 1:
        return cols  # none, or of several shapes: infinitely far apart
    signed = np.array([o.signs for o in ocds]) * np.array([o.strengths for o in ocds]) / lam
    return np.concatenate([np.array(cols), signed[:, None]], axis=1)


def _ocd_costs(xs, ys):
    """Max-metric matrix between two sequences of OCDs."""
    return _full(_ocd_metric(xs, ys))


def ocd_max_metric(X, Y):
    """Max metric on OCDs: base orders are minimized over; columns are
    compared as points (distances, sign * strength / lambda_n) by the
    bottleneck distance (see ``_ocd_costs``)."""
    return float(_ocd_costs([X], [Y])[0, 0])


def scd_dist(X, Y, mode="emd"):
    """Metric between SCDs via EMD or LAC over the OCD max metric."""
    return _distribution_dist(X, Y, mode, lambda: _ocd_metric(X.ocds, Y.ocds))
