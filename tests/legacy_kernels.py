"""Reference copies of code that an existing routine now does, kept verbatim
as oracles: ``strength`` by the Cayley-Menger determinant, and ``rm`` and
``pm``, whose oriented q = 2 branch built the three mirror images as one
array and took its row norms by hand.  The current ``strength`` must stay
within 1e-12 (relative above 1) of this one, and ``rm``/``pm`` must match
these bit for bit.

``strength_det`` and ``simplex_sign`` each took their own determinant of
the successive differences (``simplex_sign`` of their transpose), and
``canonical`` grouped the SDD/SCD classes with a lexsort over every column
of the forms.  The current ``strength``, ``simplex_sign``, ``sdd``, ``scd``
and rigid ``seq_metric`` must match these bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from geoinv.lattice2d import _ms
from geoinv.numcore import INF, _pairwise, _within, lq_norm, norm_exponent
from geoinv.simplexwise import (
    DEGENERATE_REL_TOL, MAX_METRIC_BLOCK, ORDERS, SIMPLEX_CELL_BUDGET, _bases, _least_forms,
    _rest, _simplices,
)


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


def strength_det(points):
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


def signs_strengths(pts, n):
    """``simplexwise._signs_strengths`` by the two functions above."""
    return simplex_sign(pts), strength_det(pts)


def canonical(points, m, h, width, forms_of):
    """``simplexwise._canonical`` with the classes grouped by one lexsort of
    the rounded least forms over all ``width`` columns."""
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
    order = np.lexsort(keys.T[::-1])
    # a class starts where a sorted key differs from its predecessor,
    # compared a block of rows at a time
    differs = np.ones(total, dtype=bool)
    step = max(1, MAX_METRIC_BLOCK // width)
    for lo in range(1, total, step):
        rows, before = order[lo : lo + step], order[lo - 1 : lo + step - 1]
        differs[lo : lo + len(rows)] = (keys[rows] != keys[before[: len(rows)]]).any(axis=1)
    del keys
    starts = np.flatnonzero(differs)
    first = order[starts]  # the lexsort is stable: the first base of each class
    seen = np.argsort(first)
    counts = np.diff(np.r_[starts, total])[seen]
    return counts / total, forms[first[seen]], total


def rm(a, b, q=2.0, oriented=False):
    """Root metric between two root invariants; oriented uses closed forms."""
    qn = norm_exponent(q)
    r, s = a.triple(), b.triple()
    if not oriented or a.sign * b.sign >= 0:
        return lq_norm(r - s, qn)
    if qn == 2.0:
        refl = np.array(
            [
                [-s[0], s[1], s[2]],
                [s[1], s[0], s[2]],
                [s[0], s[2], s[1]],
            ]
        )
        return float(np.sqrt(((refl - r) ** 2).sum(axis=1)).min())
    if qn is INF:
        d0 = max(r[0] + s[0], abs(r[1] - s[1]), abs(r[2] - s[2]))
        d1 = max(_ms(r[0], r[1], s[0], s[1]), abs(r[2] - s[2]))
        d2 = max(abs(r[0] - s[0]), _ms(r[1], r[2], s[1], s[2]))
        return float(min(d0, d1, d2))
    raise ValueError("oriented root metric supports q in {2, inf} only")


def pm(a, b, q=2.0, oriented=False):
    """Projected metric between two projected invariants."""
    qn = norm_exponent(q)
    p1, p2 = a.pair(), b.pair()
    if not oriented or a.sign * b.sign >= 0:
        return lq_norm(p1 - p2, qn)
    if qn == 2.0:
        refl = np.array(
            [
                [-p2[0], p2[1]],
                [p2[0], -p2[1]],
                [1.0 - p2[1], 1.0 - p2[0]],
            ]
        )
        return float(np.sqrt(((refl - p1) ** 2).sum(axis=1)).min())
    if qn is INF:
        (x1, y1), (x2, y2) = sorted([tuple(p1), tuple(p2)])
        dx = max(x2 - x1, y2 + y1)
        dy = max(x2 + x1, abs(y2 - y1))
        dxy = max(x2 - x1, 1.0 - x2 - y2 + abs(1.0 - y1 - x2))
        return float(min(dx, dy, dxy))
    raise ValueError("oriented projected metric supports q in {2, inf} only")
