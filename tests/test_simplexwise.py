"""Simplexwise distributions: strength, RDD/SDD, OCD/SCD and their metrics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import random_isometry, random_rotation
from geoinv.clouds import PointCloud, spd
from geoinv.simplexwise import (
    LAMBDA,
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
