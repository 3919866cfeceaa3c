"""Simplexwise distributions: strength, RDD/SDD, OCD/SCD and their metrics."""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest

import legacy_kernels
from conftest import _ref_bottleneck_from_costs, random_isometry, random_rotation
from geoinv import numcore, simplexwise
from geoinv.clouds import PointCloud, spd
from geoinv.numcore import INF, _pairwise, bottleneck_from_costs, lac
from geoinv.simplexwise import (
    LAMBDA,
    ORDERS,
    Ocd,
    Rdd,
    _distribution_dist,
    _ocd_costs,
    _rdd_costs,
    _round_key,
    ocd_max_metric,
    rdd_max_metric,
    scd,
    scd_dist,
    sdd,
    sdd_dist,
    simplex_sign,
    strength,
)

S2 = math.sqrt(2)


def test_strength_golden_triangle():
    tri = np.array([[0, 0], [1, 0], [0, 1]], float)
    assert strength(tri) == pytest.approx(1 / (S2 * (1 + S2) ** 3), abs=1e-12)


def test_strength_segment():
    seg = np.array([[0.0], [3.0]])
    assert strength(seg) == pytest.approx(6.0, abs=1e-12)


def test_strength_degenerate_is_zero():
    flat = np.array([[0, 0], [1, 0], [2, 0]], float)
    assert strength(flat) == 0.0
    assert simplex_sign(flat) == 0.0


def test_strength_lipschitz(rng):
    # |sigma(A) - sigma(A')| <= 2 * eps * lambda_n for eps-perturbations
    for _ in range(100):
        n = int(rng.integers(2, 4))
        pts = rng.uniform(0, 2, size=(n + 1, n))
        eps = rng.uniform(1e-4, 0.05)
        noise = rng.normal(size=pts.shape)
        noise *= eps / np.linalg.norm(noise, axis=1, keepdims=True)
        gap = abs(strength(pts) - strength(pts + noise))
        assert gap <= 2 * eps * LAMBDA[n] + 1e-12


def test_simplex_sign_orientation():
    tri = np.array([[0, 0], [1, 0], [0, 1]], float)
    assert simplex_sign(tri) == 1.0
    assert simplex_sign(tri[::-1]) == -1.0


def test_sdd_isometry_invariance(rng):
    pts = rng.normal(size=(5, 3))
    Rm, t = random_isometry(rng, 3)
    X = sdd(PointCloud(pts), 2)
    Y = sdd(PointCloud(pts @ Rm.T + t), 2)
    assert sdd_dist(X, Y) < 1e-9
    assert sdd_dist(X, Y, mode="lac") < 1e-9


def _pm_pair(base, last):
    lo = PointCloud(np.array(base + [[last[0], last[1], -last[2]]], float))
    hi = PointCloud(np.array(base + [list(last)], float))
    return lo, hi


def test_sdd_separates_s_pair():
    Sm, Sp = _pm_pair(
        [[-2, 0, -2], [2, 0, 2], [-1, -1, 0], [1, 1, 0]], (0, 1, 1)
    )
    assert np.abs(spd(Sm) - spd(Sp)).max() < 1e-9
    assert sdd_dist(sdd(Sm, 2), sdd(Sp, 2)) > 1e-6


def test_scd_golden_right_triangle():
    R = PointCloud(np.array([[0, 0], [4, 0], [0, 3]], float))
    X = scd(R, center=False)
    assert X.weights == pytest.approx([1 / 3] * 3)
    got = sorted(
        (float(o.dvec[0]), tuple(map(tuple, np.round(o.cols, 9))), tuple(o.signs))
        for o in X.ocds
    )
    assert got[0][0] == pytest.approx(0.0)
    assert got[1][0] == pytest.approx(3.0)
    assert got[2][0] == pytest.approx(4.0)
    # base p1=(0,0): both other points at distances (3,4) or (4,3) from
    # (base, origin); origin coincides with the base point
    assert got[0][1] == ((3.0, 4.0), (3.0, 4.0))
    assert got[0][2] == (0.0, 0.0)
    # base p3=(0,3): columns (3,5) with q on the base-origin line (sign 0)
    # and (0,4) for the origin itself
    assert got[1][1] == ((3.0, 5.0), (0.0, 4.0))
    assert got[1][2] == (0.0, 1.0)
    assert got[2][1] == ((4.0, 5.0), (0.0, 3.0))
    assert got[2][2] == (0.0, -1.0)


def test_scd_golden_square():
    sq = PointCloud(np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], float))
    X = scd(sq, center=False)
    assert X.weights == pytest.approx([1.0])
    o = X.ocds[0]
    assert o.dvec == pytest.approx([1.0])
    assert o.cols == pytest.approx(np.array([[S2, S2, 2.0], [1.0, 1.0, 1.0]]), abs=1e-9)
    assert list(o.signs) == [-1.0, 1.0, 0.0]


def test_scd_detects_mirror(rng):
    # a chiral cloud is separated from its mirror image under rigid motion
    pts = rng.normal(size=(5, 3))
    mirrored = pts.copy()
    mirrored[:, 2] *= -1.0
    X = scd(PointCloud(pts))
    Y = scd(PointCloud(mirrored))
    assert scd_dist(X, Y.mirror()) < 1e-9
    # rotating the mirror image never recovers the original for generic clouds
    Rm = random_rotation(rng, 3)
    Z = scd(PointCloud(mirrored @ Rm.T))
    assert scd_dist(X, Y) == pytest.approx(scd_dist(X, Z), abs=1e-9)


def test_scd_rigid_invariance(rng):
    pts = rng.normal(size=(4, 2))
    Rm = random_rotation(rng, 2)
    X = scd(PointCloud(pts))
    Y = scd(PointCloud(pts @ Rm.T + rng.normal(size=2)))
    assert scd_dist(X, Y) < 1e-9


def _simplex_stack(rng, n, k):
    """k simplices in R^n: random, integer-tied and degenerate ones mixed."""
    pts = rng.normal(size=(k, n + 1, n))
    pts[1::3] = rng.integers(0, 3, size=pts[1::3].shape)
    # degenerate: the last point on the line through the first two (on the
    # first point itself in R^1)
    flat = pts[2::3]
    u = rng.uniform(-2, 2, size=(len(flat), 1)) if n > 1 else 0.0
    flat[:, -1] = flat[:, 0] + (flat[:, 1] - flat[:, 0]) * u
    return pts


def test_stacked_strength_and_sign_equal_per_simplex(rng):
    for n in (1, 2, 3):
        stack = _simplex_stack(rng, n, 60).reshape(5, 12, n + 1, n)
        sigma, sign = strength(stack), simplex_sign(stack)
        assert sigma.shape == sign.shape == (5, 12)
        for idx in np.ndindex(5, 12):
            assert sigma[idx] == strength(stack[idx])
            assert sign[idx] == simplex_sign(stack[idx])
        assert isinstance(strength(stack[0, 0]), float)
        assert isinstance(simplex_sign(stack[0, 0]), int)
        assert (sign == 0).sum() >= 20 and (sigma == 0).any()
        assert (sigma[sign == 0] < 1e-15).all()
        empty = np.zeros((0, n + 1, n))
        assert strength(empty).shape == simplex_sign(empty).shape == (0,)


def test_strength_matches_determinant_volume(rng):
    # V = |det(p_1 - p_0, ..., p_n - p_0)| / n! as a reference for the
    # Cayley-Menger volume
    for n in (1, 2, 3):
        stack = rng.normal(size=(50, n + 1, n))
        for pts in stack:
            vol = abs(np.linalg.det(pts[1:] - pts[0])) / math.factorial(n)
            p = sum(np.linalg.norm(a - b) for k, a in enumerate(pts) for b in pts[k + 1 :]) / 2
            assert strength(pts) == pytest.approx(vol**2 / p ** (2 * n - 1), rel=1e-9)


def test_strength_matches_the_cayley_menger_reference(rng):
    # the determinant of the difference vectors against the Cayley-Menger
    # volume: random simplices at three scales, near-degenerate ones, and
    # exactly collinear integer points, which give 0 here; Cayley-Menger
    # gave some of them about 1e-16 from the cancellation in its determinant
    def close(pts):
        new, old = strength(pts), legacy_kernels.strength(pts)
        assert (np.abs(new - old) <= 1e-12 * np.maximum(1.0, np.abs(old))).all()

    for n in (1, 2, 3):
        for scale in (1e-3, 1.0, 1e3):
            close(rng.normal(size=(2000, n + 1, n)) * scale)
        close(_simplex_stack(rng, n, 900))
        near = rng.normal(size=(2000, n + 1, n))
        u = rng.uniform(-2, 2, size=(2000, 1))
        kick = rng.normal(size=(2000, n)) * 10 ** rng.uniform(-9, -3, size=(2000, 1))
        near[:, -1] = near[:, 0] + (near[:, 1] - near[:, 0]) * (u if n > 1 else 0.0) + kick
        close(near)
    for n in (2, 3):
        start, step = rng.integers(-5, 6, size=(2, 500, 1, n))
        line = start + rng.integers(-4, 5, size=(500, n + 1, 1)) * step
        close(line)
        assert (strength(line) == 0.0).all()
    flat = np.array([[[0, 0], [1, 0], [3, 0]], [[0, 0], [0, 2], [0, 1]]])
    assert (strength(flat) == 0.0).all() and (legacy_kernels.strength(flat) == 0.0).all()


@pytest.mark.parametrize("fn", [strength, simplex_sign])
def test_simplex_rejects_non_finite_and_bad_shapes(fn):
    tri = np.array([[0, 0], [1, 0], [0, 1]], float)
    for bad in (math.nan, math.inf, -math.inf):
        pts = tri.copy()
        pts[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            fn(pts)
        with pytest.raises(ValueError, match="non-finite"):
            fn(np.stack([tri, pts]))
    for shape in ((3,), (2, 2), (4, 2), (3, 3), (5, 4), (2, 4, 2)):
        with pytest.raises(ValueError):
            fn(np.ones(shape))


def _boundary_stack(n, t):
    """Simplices (len(t), n+1, n) whose successive differences are a lower
    triangular matrix of ones on the diagonal, 0.5 below it and t last.
    The differences and their transpose factor to one diagonal with no
    pivoting, so both determinants read the same, and the simplices cross
    the sign and strength zero tests as |t| does."""
    diffs = np.zeros((len(t), n, n))
    diffs[:, np.arange(n), np.arange(n)] = 1.0
    below = np.tril_indices(n, -1)
    diffs[:, below[0], below[1]] = 0.5
    diffs[:, -1, -1] = t
    return np.concatenate([np.zeros((len(t), 1, n)), np.cumsum(diffs, axis=1)], axis=1)


def test_signs_and_strengths_equal_the_legacy_kernels(rng):
    # one determinant per simplex: the strength reads the one it read
    # before, and the sign that of the differences instead of their transpose
    def same(stack, signed=True):
        with np.errstate(all="ignore"):  # 1e+-150 overflows and underflows in both
            new = strength(stack), simplex_sign(stack)
            old = legacy_kernels.strength_det(stack), legacy_kernels.simplex_sign(stack)
        for a, b in zip(new, old):
            assert a.shape == b.shape == stack.shape[:-2]
        assert np.array_equal(new[0], old[0], equal_nan=True)
        assert np.array_equal(new[1][signed], old[1][signed])
        signed = np.broadcast_to(signed, stack.shape[:-2]).ravel()
        for pts, check in list(zip(stack.reshape((-1,) + stack.shape[-2:]), signed))[:10]:
            with np.errstate(all="ignore"):
                a, b = strength(pts), legacy_kernels.strength_det(pts)
                c, d = simplex_sign(pts), legacy_kernels.simplex_sign(pts)
            assert type(a) is type(b) is float and (a == b or math.isnan(a) and math.isnan(b))
            assert type(c) is type(d) is int and (c == d or not check)

    for n in (1, 2, 3):
        mixed = _simplex_stack(rng, n, 600)
        same(mixed)
        same(mixed.reshape(10, 60, n + 1, n))
        for scale in (1e-150, 1e150):
            # the zero tests underflow (overflow) in both, so a degenerate
            # simplex takes the sign of the rounding in its determinant
            same(mixed * scale, legacy_kernels.simplex_sign(mixed) != 0)
            same(rng.normal(size=(200, n + 1, n)) * scale)
        # exactly degenerate: repeated points, one point n+1 times, collinear
        # integer points
        same(np.repeat(rng.normal(size=(50, 1, n)), n + 1, axis=1))
        twice = rng.normal(size=(50, n + 1, n))
        twice[:, -1] = twice[:, 0]
        same(twice)
        start, step = rng.integers(-5, 6, size=(2, 200, 1, n))
        same((start + rng.integers(-4, 5, size=(200, n + 1, 1)) * step).astype(float))
        same(np.zeros((0, n + 1, n)))
        # at the DEGENERATE_REL_TOL boundaries of the sign (|t| about 1e-9)
        # and of the strength (about 5e-9 in R^2, 9e-8 in R^3), to the ulp
        t = 10.0 ** np.linspace(-10, -6, 2001)
        ulps = 1.0 + np.arange(-64, 65) * 2.0**-52
        t = np.concatenate([t, 1e-9 * ulps, 4.5e-9 * ulps, 9.375e-8 * ulps])
        edge = _boundary_stack(n, np.concatenate([t, -t, [0.0]]))
        same(edge)
        if n > 1:
            sign, sigma = simplex_sign(edge), strength(edge)
            assert (sign == 0).any() and (sign != 0).any()
            assert (sigma == 0).any() and (sigma != 0).any() and ((sigma == 0) != (sign == 0)).any()


def _tied_clouds(rng):
    """Seeded clouds with ties in R^2 and R^3: rounded coordinates, squares
    with extra points, and regular tetrahedra with extra points."""
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tetra = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
    clouds = []
    for n, shape in ((2, square), (3, tetra)):
        for m in (4, 5, 6, 7):
            clouds.append(np.round(rng.normal(size=(m, n)), 1))
            clouds.append(rng.integers(0, 3, size=(m, n)).astype(float))
        clouds += [shape, 2.0 * shape + 0.5]
        clouds.append(np.vstack([shape, np.round(rng.normal(size=(2, n)), 1)]))
        clouds.append(np.vstack([shape, -shape, np.zeros((1, n))]))
    return clouds


def _built(build, *args):
    """The arrays, weights and total of an SDD or SCD, as plain lists."""
    out = build(*args)
    classes = out.rdds if isinstance(out, simplexwise.Sdd) else out.ocds
    return out.weights, [dataclasses.astuple(c) for c in classes], out.total


def test_sdd_and_scd_equal_the_legacy_builds(rng, monkeypatch):
    # the legacy build groups the classes by a lexsort over every column and
    # takes the sign and the strength of each simplex by its own determinant
    clouds = _tied_clouds(rng)
    calls = [(sdd, c, h) for c in clouds for h in (1, 2, 3) if h < len(c)]
    calls += [(scd, c, center) for c in clouds for center in (True, False)]
    new = [_built(*call) for call in calls]
    monkeypatch.setattr(simplexwise, "_canonical", legacy_kernels.canonical)
    monkeypatch.setattr(simplexwise, "_signs_strengths", legacy_kernels.signs_strengths)
    old = [_built(*call) for call in calls]
    merged = 0
    for (wa, ca, ta), (wb, cb, tb) in zip(new, old):
        assert ta == tb and np.array_equal(wa, wb) and len(ca) == len(cb)
        merged += len(ca) < ta
        for xa, xb in zip(ca, cb):
            assert all(np.array_equal(a, b) for a, b in zip(xa, xb))
    assert merged > len(calls) // 2  # the ties merge classes
    signs = np.concatenate([c[2] for _, cs, _ in new[-2 * len(clouds):] for c in cs])
    assert (signs == 0).any() and (signs != 0).any()


def test_canonical_puts_signed_zeros_in_one_class():
    # -0.0 and +0.0 (also a negative key that rounds to -0.0) are one key;
    # 2.0 lies between their bytes, so only equal bytes keep them together
    head = np.array([-0.0, 2.0, 0.0, -1e-12, 1e-12, 2.0, -0.0])

    def forms_of(d, ordered, rest):
        bases = ordered[:, :, 0]
        return head[bases][..., None], np.zeros(bases.shape + (1, 1)), 1

    points = np.zeros((len(head), 1))
    weights, forms, total = simplexwise._canonical(points, len(head), 1, 2, forms_of)
    assert total == 7 and np.array_equal(weights, [5 / 7, 2 / 7])
    assert np.signbit(forms[0, 0]) and np.array_equal(forms, [[-0.0, 0.0], [2.0, 0.0]])


# Reference oracle: the canonicalisers and max metrics written out per
# invariant, one order at a time, with the least key tracked by hand.


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


def _ref_canonical_rdd(D, R):
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


def _ref_sdd(pts, h):
    m = len(pts)
    d = _pairwise(pts, pts)
    return _weighted_classes(
        _ref_canonical_rdd(
            d[np.ix_(base, base)],
            d[np.ix_(base, [i for i in range(m) if i not in base])],
        )
        for base in itertools.combinations(range(m), h)
    )


def _ref_ocd_for_base(pts, base_idx):
    origin = np.zeros((1, pts.shape[1]))
    base_pts = pts[list(base_idx)]
    rest = pts[[i for i in range(len(pts)) if i not in base_idx]]
    h = len(base_pts)
    anchors = np.vstack([base_pts, origin])
    d = _pairwise(anchors, np.vstack([anchors, rest]))
    simplices = np.zeros((len(rest), h + 2, pts.shape[1]))
    simplices[:, h + 1] = rest
    best = None
    for perm in itertools.permutations(range(h)):
        p = list(perm)
        simplices[:, :h] = base_pts[p]
        dvec = np.concatenate([d[np.ix_(p, p)][np.triu_indices(h, k=1)], d[p, h]])
        cols = d[p + [h], h + 1 :]
        signs = simplex_sign(simplices)
        strengths = strength(simplices)
        full = np.vstack([cols, signs[None, :]])
        order = np.lexsort(full[::-1]) if full.size else np.array([], dtype=int)
        ocd = Ocd(dvec, cols[:, order], signs[order], strengths[order])
        key = ocd.key()
        if best is None or key < best[0]:
            best = (key, ocd)
    return best[1]


def _ref_scd(pts, center):
    if center:
        pts = pts - pts.mean(axis=0)
    bases = itertools.combinations(range(len(pts)), pts.shape[1] - 1)
    return _weighted_classes(_ref_ocd_for_base(pts, base) for base in bases)


def _ref_rdd_max_metric(X, Y):
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
            d2 = _ref_bottleneck_from_costs(costs)
        else:
            d2 = 0.0
        best = min(best, max(d1, d2))
    return float(best)


def _ref_ocd_max_metric(X, Y):
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
            d2 = _ref_bottleneck_from_costs(costs)
        else:
            d2 = 0.0
        best = min(best, max(d1, d2))
    return float(best)


def _oracle_clouds(rng):
    """Seeded (cloud, perturbed copy) pairs: m = 4-6 in R^2, m = 4-5 in R^3.

    Half of the clouds are distinct integer grid points plus 1e-12 noise, so
    that several base orders and columns tie after rounding while their raw
    values differ.
    """
    for trial in range(8):
        n = 2 + trial % 2
        m = 4 + (trial // 2) % (3 if n == 2 else 2)
        if trial % 4 < 2:
            grid = np.array(list(itertools.product(range(3), repeat=n)), dtype=float)
            pts = grid[rng.choice(len(grid), m, replace=False)]
            pts += 1e-12 * rng.normal(size=pts.shape)
        else:
            pts = rng.normal(size=(m, n))
        yield pts, pts + 0.05 * rng.normal(size=pts.shape)


def _assert_same_classes(got, want, reps):
    """``got`` (an Sdd or Scd) holds the classes (weights, reps, total) ``want``."""
    weights, want_reps, total = want
    assert got.total == total
    assert np.array_equal(got.weights, weights)
    assert len(getattr(got, reps)) == len(want_reps)
    for a, b in zip(getattr(got, reps), want_reps):
        for field in vars(a):
            assert np.array_equal(getattr(a, field), getattr(b, field))


def _assert_same_dists(dist, metric, ref_metric, X, Y, reps):
    """Equal cost matrices (all pairs at once and pair by pair), then equal
    EMD and LAC values."""
    xs, ys = getattr(X, reps), getattr(Y, reps)
    costs = np.array([[ref_metric(a, b) for b in ys] for a in xs])
    all_pairs = _rdd_costs if reps == "rdds" else _ocd_costs
    assert np.array_equal(all_pairs(xs, ys), costs)
    assert np.array_equal(np.array([[metric(a, b) for b in ys] for a in xs]), costs)
    for mode in ("emd", "lac"):
        want = _distribution_dist(X, Y, mode, lambda: costs)
        assert dist(X, Y, mode) == want


def test_sdd_matches_reference_oracle(rng):
    for pts, qts in _oracle_clouds(rng):
        for h in (1, 2, 3):
            X, Y = sdd(pts, h), sdd(qts, h)
            _assert_same_classes(X, _ref_sdd(pts, h), "rdds")
            _assert_same_classes(Y, _ref_sdd(qts, h), "rdds")
            _assert_same_dists(sdd_dist, rdd_max_metric, _ref_rdd_max_metric, X, Y, "rdds")


def test_scd_matches_reference_oracle(rng):
    for pts, qts in _oracle_clouds(rng):
        for center in (True, False):
            X, Y = scd(pts, center), scd(qts, center)
            _assert_same_classes(X, _ref_scd(pts, center), "ocds")
            _assert_same_classes(Y, _ref_scd(qts, center), "ocds")
            # the mirror image differs from X only in the signed strengths
            image = scd(pts * np.r_[np.ones(pts.shape[1] - 1), -1.0], center)
            for other in (Y, Y.mirror(), image):
                _assert_same_dists(scd_dist, ocd_max_metric, _ref_ocd_max_metric, X, other, "ocds")


def _grid_or_normal(rng, m, n, side):
    """m distinct points of the grid {0..side-1}^n plus 1e-12 noise (ties
    after rounding), or m normal points, and a copy moved by 0.05 noise."""
    grid = np.array(list(itertools.product(range(side), repeat=n)), dtype=float)
    for pts in (
        grid[rng.choice(len(grid), m, replace=False)] + 1e-12 * rng.normal(size=(m, n)),
        rng.normal(size=(m, n)),
    ):
        yield pts, pts + 0.05 * rng.normal(size=pts.shape)


@pytest.mark.parametrize("pairs_per_block", [None, 1, 7])
def test_max_metrics_match_oracle_at_bench_sizes(rng, monkeypatch, pairs_per_block):
    # SCD in R^2 with m = 12 (k = 11 columns, one order) and SDD with h = 3,
    # m = 6 (6 orders, k = 3), with the default block size, one class pair
    # per block and seven pairs per block (so that blocks end mid-row)
    def check(dist, metric, ref_metric, X, Y, reps, orders, k):
        if pairs_per_block is not None:
            monkeypatch.setattr(simplexwise, "MAX_METRIC_BLOCK", pairs_per_block * orders * k * k)
        _assert_same_dists(dist, metric, ref_metric, X, Y, reps)

    for pts, qts in _grid_or_normal(rng, 12, 2, 4):
        X, Y = scd(pts), scd(qts)
        assert len(X) == 12
        for other in (Y, Y.mirror()):
            check(scd_dist, ocd_max_metric, _ref_ocd_max_metric, X, other, "ocds", 1, 11)
    for pts, qts in _grid_or_normal(rng, 6, 3, 3):
        X, Y = sdd(pts, 3), sdd(qts, 3)
        assert len(Y) > 7
        check(sdd_dist, rdd_max_metric, _ref_rdd_max_metric, X, Y, "rdds", 6, 3)


def test_max_metric_search_count_is_bounded_and_repeatable(rng, monkeypatch):
    # the bound and the pruning leave at most half of the |X| |Y| h!
    # bottleneck searches that one search per pair and order would make
    calls = []

    def counted(costs):
        calls.append(len(costs))
        return real(costs)

    real = simplexwise.bottleneck_from_costs
    monkeypatch.setattr(simplexwise, "bottleneck_from_costs", counted)
    pts = rng.normal(size=(7, 3))
    qts = pts + 0.01 * rng.normal(size=pts.shape)
    for X, Y, dist, h in (
        (scd(pts), scd(qts), scd_dist, 2),
        (sdd(pts, 3), sdd(qts, 3), sdd_dist, 3),
    ):
        counts = []
        for _ in range(2):
            calls.clear()
            dist(X, Y)
            counts.append(len(calls))
        assert counts[0] == counts[1] <= len(X) * len(Y) * len(ORDERS[h]) // 2


def test_sdd_rejects_non_integer_order():
    pts = np.arange(12.0).reshape(4, 3) ** 1.5
    for h in (2.0, "2", None, 2.5):
        with pytest.raises(ValueError, match="integer"):
            sdd(pts, h)
    X = sdd(pts, np.int64(2))
    assert X.rdds[0].h == 2 and sdd_dist(X, sdd(pts, 2)) == 0.0


def test_max_metrics_reject_non_finite_columns(rng):
    pts = rng.normal(size=(6, 3))
    X, Y = sdd(pts, 2), scd(pts)
    small_r, small_o = sdd(pts[:5], 2).rdds[0], scd(pts[:5]).ocds[0]
    for bad in (math.nan, math.inf, -math.inf):
        r, o = X.rdds[0], Y.ocds[0]
        R, cols = r.R.copy(), o.cols.copy()
        R[1, -1] = cols[0, -1] = bad
        bad_r, bad_o = Rdd(r.D, R), dataclasses.replace(o, cols=cols)
        bad_X = dataclasses.replace(X, rdds=X.rdds[:1] + (bad_r,) + X.rdds[2:])
        bad_Y = dataclasses.replace(Y, ocds=(bad_o,) + Y.ocds[1:])
        for call in (
            lambda: rdd_max_metric(bad_r, r),
            lambda: rdd_max_metric(r, bad_r),
            lambda: ocd_max_metric(bad_o, o),
            lambda: ocd_max_metric(o, bad_o),
            lambda: sdd_dist(bad_X, X),
            lambda: sdd_dist(X, bad_X, mode="lac"),
            lambda: scd_dist(bad_Y, Y),
            lambda: scd_dist(Y, bad_Y, mode="lac"),
        ):
            with pytest.raises(ValueError, match="non-finite coordinates"):
                call()
        # classes of different shapes stay infinitely far apart
        assert rdd_max_metric(bad_r, small_r) == math.inf
        assert ocd_max_metric(small_o, bad_o) == math.inf
    with pytest.raises(ValueError, match="incompatible sizes"):
        scd_dist(Y, scd(pts[:5]))


def test_simplexwise_error_paths(rng):
    pts = rng.normal(size=(6, 3))
    X = sdd(pts, 2)
    with pytest.raises(ValueError, match="incompatible sizes"):
        sdd_dist(X, sdd(pts[:5], 2))
    with pytest.raises(ValueError, match="incompatible sizes"):
        scd_dist(scd(pts[:, :2]), scd(pts))
    with pytest.raises(ValueError, match="LAC"):
        sdd_dist(X, dataclasses.replace(X, total=X.total + 1), mode="lac")
    with pytest.raises(ValueError, match="unknown mode"):
        sdd_dist(X, X, mode="bogus")
    with pytest.raises(ValueError, match="unknown mode"):
        scd_dist(scd(pts), scd(pts), mode="bogus")
    with pytest.raises(ValueError, match="incompatible orders"):
        rdd_max_metric(X.rdds[0], sdd(pts, 1).rdds[0])
    with pytest.raises(ValueError, match="incompatible orders"):
        sdd_dist(X, sdd(pts, 3))
    with pytest.raises(ValueError, match="weights"):
        sdd_dist(dataclasses.replace(X, weights=np.array([]), rdds=()), X)


def test_mode_and_totals_are_checked_before_the_costs(rng, monkeypatch):
    # an unknown mode or unequal LAC totals were rejected after one
    # _max_metric call had built the cost matrix
    calls = []
    max_metric = simplexwise._max_metric
    monkeypatch.setattr(simplexwise, "_max_metric", lambda *a: calls.append(1) or max_metric(*a))
    pts = rng.normal(size=(6, 3))
    for X, dist in ((sdd(pts, 2), sdd_dist), (scd(pts), scd_dist)):
        for Y, mode, message in (
            (X, "bogus", "unknown mode"),
            (dataclasses.replace(X, total=X.total + 1), "lac", "LAC mode needs equal-size"),
        ):
            with pytest.raises(ValueError, match=message):
                dist(X, Y, mode=mode)
        assert not calls
        dist(X, X, mode="lac")
        assert len(calls) == 1
        calls.clear()


def _expanded_lac(X, Y, costs):
    """Verbatim LAC of the costs with every class repeated by its count, the
    way LAC mode was computed before it went through the EMD."""
    cx = np.rint(np.asarray(X.weights) * X.total).astype(int)
    cy = np.rint(np.asarray(Y.weights) * Y.total).astype(int)
    return lac(np.repeat(np.repeat(costs, cx, axis=0), cy, axis=1))


def test_lac_is_the_emd_of_equal_size_distributions(rng):
    merged = singletons = 0
    for m in range(4, 9):
        angles = 2 * np.pi * np.arange(m) / m
        polygon = np.column_stack([np.cos(angles), np.sin(angles)])
        clouds = (
            (polygon, 1.05 * polygon[::-1]),  # classes merge on both sides
            (polygon, polygon + 0.05 * rng.normal(size=(m, 2))),  # on one side
            (rng.normal(size=(m, 2)), rng.normal(size=(m, 2))),  # singletons
        )
        for pts, qts in clouds:
            pairs = [(sdd(pts, h), sdd(qts, h), sdd_dist, _rdd_costs, "rdds") for h in (1, 2)]
            pairs.append((scd(pts), scd(qts), scd_dist, _ocd_costs, "ocds"))
            for X, Y, dist, all_pairs, reps in pairs:
                value = dist(X, Y, mode="lac")
                assert value == dist(X, Y, mode="emd")
                want = _expanded_lac(X, Y, all_pairs(getattr(X, reps), getattr(Y, reps)))
                if len(X) == X.total and len(Y) == Y.total:
                    singletons += 1
                    assert value == want
                else:
                    merged += 1
                    assert abs(value - want) <= 1e-12
    assert merged >= 20 and singletons >= 10


def test_simplex_cell_budget_raises_before_building(rng, monkeypatch):
    pts = rng.normal(size=(8, 3))
    X = sdd(pts, 2)  # 28 bases x 2 orders x (4 + 2 x 6) = 896 form cells
    Y = scd(pts)  # 28 bases x 2 orders x (3 + 5 x 6) = 1848 form cells

    def refuse(*args):
        raise AssertionError("built past the budget")

    monkeypatch.setattr(simplexwise, "SIMPLEX_CELL_BUDGET", 895)
    with monkeypatch.context() as m:
        m.setattr(simplexwise, "_bases", refuse)
        with pytest.raises(ValueError, match="28 x 2 orders x 16 = 896 form cells, over the"):
            sdd(pts, 2)
        with pytest.raises(ValueError, match="1.85e\\+03 form cells, over the budget of 895"):
            scd(pts)
        # a 200-point cloud at order 3 would need about 6 GB of forms
        monkeypatch.setattr(simplexwise, "SIMPLEX_CELL_BUDGET", 2**23)
        with pytest.raises(ValueError, match="1313400 3-point bases of 200 points"):
            sdd(rng.normal(size=(200, 3)), 3)
    # 28 x 28 classes x 2 orders x 6 x 6 = 56448 cost cells
    monkeypatch.setattr(simplexwise, "SIMPLEX_CELL_BUDGET", 56447)
    with monkeypatch.context() as m:
        m.setattr(simplexwise, "bottleneck_from_costs", refuse)
        for mode in ("emd", "lac"):
            with pytest.raises(ValueError, match="28 x 28 x 2 orders x 6 x 6 = 5.64e\\+04 cost"):
                sdd_dist(X, X, mode=mode)
            with pytest.raises(ValueError, match="over the budget of 56447"):
                scd_dist(Y, Y, mode=mode)
    monkeypatch.setattr(simplexwise, "SIMPLEX_CELL_BUDGET", 56448)
    assert sdd_dist(X, X) == 0.0 and scd_dist(Y, Y) == 0.0


@pytest.mark.parametrize(
    "build, n",
    [(lambda X: sdd(X, 1), 3), (lambda X: sdd(X, 2), 3), (lambda X: sdd(X, 3), 3), (scd, 2),
     (scd, 3)],
    ids=["sdd-h1", "sdd-h2", "sdd-h3", "scd-R2", "scd-R3"],
)
def test_simplex_cell_budget_checked_before_the_distance_matrix(build, n, rng, monkeypatch):
    pts = rng.normal(size=(12, n))
    calls = []

    def counted(A, B, q=2.0):
        calls.append(len(A))
        return _pairwise(A, B, q)

    monkeypatch.setattr(simplexwise, "_pairwise", counted)
    build(pts)
    assert len(calls) == 1
    calls.clear()
    # sdd at h = 1 has 12 x 12 = 144 form cells, as many as the distances
    monkeypatch.setattr(simplexwise, "SIMPLEX_CELL_BUDGET", 143)
    with pytest.raises(ValueError, match="form cells, over the budget of 143"):
        build(pts)
    assert calls == []


# Bound-first distances: with m > 1 classes of weight 1/m on both sides,
# sdd_dist/scd_dist take the class assignment from lower bounds and compute
# exactly only the class pairs an optimal assignment can use.


def _bound_first_pairs(rng):
    """Seeded (label, X points, Y points): near copies, shuffled near copies
    (the assignment is not the identity), unrelated clouds, grid points plus
    1e-12 noise and regular polygons (merged classes: the LP path)."""
    for n, m in ((2, 8), (3, 7)):
        pts = rng.normal(size=(m, n))
        yield "near", pts, pts + 1e-3 * rng.normal(size=pts.shape)
        yield "shuffled", pts, (pts + 1e-3 * rng.normal(size=pts.shape))[rng.permutation(m)]
        yield "unrelated", pts, rng.normal(size=(m, n))
        grid = np.array(list(itertools.product(range(3), repeat=n)), dtype=float)
        tied = grid[rng.choice(len(grid), m, replace=False)] + 1e-12 * rng.normal(size=(m, n))
        yield "grid", tied, tied[rng.permutation(m)] + 1e-12 * rng.normal(size=(m, n))
    angles = 2 * np.pi * np.arange(8) / 8
    polygon = np.column_stack([np.cos(angles), np.sin(angles)])
    yield "polygon", polygon, 1.05 * polygon[::-1] + 1e-3 * rng.normal(size=polygon.shape)


def _distributions(pts, qts):
    """(dist, X, Y, full costs) for SDD at h = 1, 2, 3 and SCD centred and
    not, with the mirror image of Y for SCD."""
    for h in (1, 2, 3):
        X, Y = sdd(pts, h), sdd(qts, h)
        yield sdd_dist, X, Y, _rdd_costs(X.rdds, Y.rdds)
    for center in (True, False):
        X, Y = scd(pts, center), scd(qts, center)
        image = scd(qts * np.r_[np.ones(qts.shape[1] - 1), -1.0], center)
        for other in (Y, image):
            yield scd_dist, X, other, _ocd_costs(X.ocds, other.ocds)


def test_bound_first_distances_equal_the_full_matrix(rng, monkeypatch):
    solved = []
    assigned = numcore._assigned_from_bounds
    monkeypatch.setattr(numcore, "_assigned_from_bounds",
                        lambda *a: solved.append(1) or assigned(*a))
    labels = set()
    for label, pts, qts in _bound_first_pairs(rng):
        for dist, X, Y, costs in _distributions(pts, qts):
            for mode in ("emd", "lac"):
                before = len(solved)
                value = dist(X, Y, mode)
                assert value == _distribution_dist(X, Y, mode, lambda: costs)
                assert dist(Y, X, mode) == value
                if len(solved) > before:
                    labels.add(label)
    # every kind of pair except the merged classes went bound-first
    assert labels == {"near", "shuffled", "unrelated", "grid"} and len(solved) > 100


def test_near_copy_scd_searches_few_class_pairs(rng, monkeypatch):
    # 12 classes of 11 columns: the full matrix has 144 searched matrices
    seen = []
    real = simplexwise.bottleneck_from_costs

    def counted(costs):
        seen.append(int(np.prod(np.shape(costs)[:-2])))
        return real(costs)

    pts = rng.normal(size=(12, 2))
    X, Y = scd(pts), scd(pts + 1e-3 * rng.normal(size=pts.shape))
    assert len(X) == len(Y) == 12 and X.ocds[0].cols.shape[1] == 11
    want = _distribution_dist(X, Y, "emd", lambda: _ocd_costs(X.ocds, Y.ocds))
    monkeypatch.setattr(simplexwise, "bottleneck_from_costs", counted)
    assert scd_dist(X, Y) == want
    assert sum(seen) <= 3 * 12


def test_unrelated_pairs_fall_back_to_the_full_matrix(rng, monkeypatch):
    seen = []
    real = simplexwise.bottleneck_from_costs

    def counted(costs):
        seen.append(int(np.prod(np.shape(costs)[:-2])))
        return real(costs)

    X, Y = scd(rng.normal(size=(12, 2))), scd(rng.normal(size=(12, 2)))
    want = _distribution_dist(X, Y, "emd", lambda: _ocd_costs(X.ocds, Y.ocds))
    monkeypatch.setattr(simplexwise, "bottleneck_from_costs", counted)
    assert scd_dist(X, Y) == want
    assert sum(seen) == len(X) * len(Y)


def test_bound_first_refines_past_a_missing_candidate(rng, monkeypatch):
    # a negative slack keeps only the assignment of the bounds as candidates,
    # so the assignment is solved again until it uses exact entries only
    monkeypatch.setattr(numcore, "PRUNE_SLACK", -1.0)
    for label, pts, qts in _bound_first_pairs(rng):
        for dist, X, Y, costs in _distributions(pts, qts):
            value = dist(X, Y)
            assert value == _distribution_dist(X, Y, "emd", lambda: costs)
            assert dist(Y, X) == value


def test_small_enumerated_near_copies_go_bound_first(rng, monkeypatch):
    # SDD at h = 2 on 5 points: 10 x 10 classes x 2 orders x 3 x 3 cost
    # cells, the smallest bench size; the full matrix is never built
    def refuse(self):
        raise AssertionError("built the whole matrix")

    pts = rng.normal(size=(5, 2))
    X, Y = sdd(pts, 2), sdd(pts + 1e-3 * rng.normal(size=pts.shape), 2)
    want = _distribution_dist(X, Y, "emd", lambda: _rdd_costs(X.rdds, Y.rdds))
    monkeypatch.setattr(simplexwise._Costs, "full", refuse)
    assert len(X) == len(Y) == 10
    assert sdd_dist(X, Y) == sdd_dist(Y, X) == want


def test_swapped_pair_takes_the_transposed_lower_bounds(rng):
    # the lower bounds of the classes of Y against the classes of X are
    # bitwise those of X against Y, transposed
    pairs = []
    for h in (1, 2, 3):
        X, Y = sdd(rng.normal(size=(6, 2)), h), sdd(rng.normal(size=(6, 2)), h)
        pairs.append((simplexwise._rdd_metric(X.rdds, Y.rdds), simplexwise._rdd_metric(Y.rdds, X.rdds)))
    for n in (2, 3):
        X, Y = scd(rng.normal(size=(7, n))), scd(rng.normal(size=(7, n)))
        pairs.append((simplexwise._ocd_metric(X.ocds, Y.ocds),
                      simplexwise._ocd_metric(Y.ocds, X.ocds)))
    for costs, swapped in pairs:
        low = costs.lower()
        assert swapped.lower().tobytes() == low.T.tobytes()


def _tied_sdd(values):
    """An SDD of one class per value, all of weight 1 / m: at h = 3 a class
    has the base distances 1 and one remaining point at ``value`` from each
    base point, so every order of every class pair ties and the max metric
    of two classes is the gap between their values."""
    rdds = tuple(Rdd(1.0 - np.eye(3), np.full((3, 1), v)) for v in values)
    return simplexwise.Sdd(np.full(len(values), 1.0 / len(values)), rdds, len(values))


def test_tied_assignments_run_the_same_steps_in_both_argument_orders(rng, monkeypatch):
    # in each block of two classes every value of X is below every value of
    # Y, so both assignments of the block cost the same: 2^4 optimal class
    # assignments.  Both argument orders take the same exact entries of the
    # same matrix and return the same float.
    steps = []
    assigned, exact = numcore._assigned_from_bounds, simplexwise._Costs.exact
    monkeypatch.setattr(numcore, "_assigned_from_bounds",
                        lambda costs, low: steps.append(low.tobytes()) or assigned(costs, low))
    monkeypatch.setattr(simplexwise._Costs, "exact",
                        lambda self, a, b: steps.append((a.tobytes(), b.tobytes())) or exact(self, a, b))
    for scale in (0.125, 0.1):  # exact ties, and ties up to the rounding of the gaps
        for _ in range(10):
            base = 10.0 * np.arange(4)
            xs = np.concatenate([base, base + 2 * scale]) + scale * rng.integers(0, 2, 8)
            ys = np.concatenate([base + 5 * scale, base + 7 * scale])[rng.permutation(8)]
            X, Y = _tied_sdd(xs), _tied_sdd(ys)
            full = _rdd_costs(X.rdds, Y.rdds)
            runs = []
            for P, Q in ((X, Y), (Y, X)):
                steps.clear()
                runs.append((sdd_dist(P, Q), list(steps)))
            assert runs[0] == runs[1] and len(runs[0][1]) >= 1
            want = _distribution_dist(X, Y, "emd", lambda: full)
            if scale == 0.125:
                assert runs[0][0] == want
            else:
                assert runs[0][0] == pytest.approx(want, rel=1e-12)
