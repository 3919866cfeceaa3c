"""Finite point-cloud invariants: SRD, SPD, PDD and the EMD-based metric."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import random_isometry
from geoinv.clouds import (
    PointCloud,
    collapse_rows,
    pdd,
    pdd_dist,
    spd,
    spd_from_pdd,
    srd,
)
from geoinv.numcore import INF
from geoinv.simplexwise import scd, sdd

S2, S5, S10, S17 = (math.sqrt(v) for v in (2, 5, 10, 17))

T = PointCloud(np.array([[-2, 1], [2, 1], [-4, -1], [4, -1]], float))
K = PointCloud(np.array([[5, 0], [-3, 0], [-1, 2], [-1, -2]], float))


def test_srd_golden():
    assert srd(T) == pytest.approx([S17, S17, S5, S5], abs=1e-9)
    assert srd(K) == pytest.approx([5.0, 3.0, S5, S5], abs=1e-9)


def test_spd_golden():
    want = [2 * S2, 2 * S2, 4.0, 2 * S10, 2 * S10, 8.0]
    assert spd(T) == pytest.approx(want, abs=1e-9)
    assert spd(K) == pytest.approx(want, abs=1e-9)


def test_pdd_golden():
    P = pdd(T, 3)
    assert P.weights == pytest.approx([0.5, 0.5], abs=1e-9)
    assert P.rows == pytest.approx(
        np.array([[2 * S2, 4, 2 * S10], [2 * S2, 2 * S10, 8]]), abs=1e-9
    )
    Q = pdd(K, 3)
    assert Q.weights == pytest.approx([0.25, 0.5, 0.25], abs=1e-9)
    assert Q.rows == pytest.approx(
        np.array(
            [[2 * S2, 2 * S2, 8], [2 * S2, 4, 2 * S10], [2 * S10, 2 * S10, 8]]
        ),
        abs=1e-9,
    )


def test_pdd_separates_trapezium_from_kite():
    assert pdd_dist(pdd(T, 3), pdd(K, 3)) > 1e-6


def test_spd_from_pdd_round_trip():
    assert spd_from_pdd(pdd(T, 3)) == pytest.approx(spd(T), abs=1e-9)
    assert spd_from_pdd(pdd(K, 3)) == pytest.approx(spd(K), abs=1e-9)


def test_collapse_rows_merges_equal_rows():
    rows = np.array([[1.0, 2.0], [1.0, 2.0 + 1e-12], [3.0, 4.0]])
    w = np.array([0.25, 0.25, 0.5])
    out = collapse_rows(rows, w, 1e-9)
    assert len(out.rows) == 2
    assert out.weights == pytest.approx([0.5, 0.5])


def test_pdd_isometry_invariance(rng):
    for _ in range(20):
        m = int(rng.integers(3, 8))
        n = int(rng.integers(2, 4))
        pts = rng.normal(size=(m, n))
        Rm, t = random_isometry(rng, n)
        moved = pts @ Rm.T + t
        d = pdd_dist(pdd(PointCloud(pts), m - 1), pdd(PointCloud(moved), m - 1))
        assert d < 1e-9


def test_pdd_lipschitz(rng):
    # EMD_q(PDD) <= 2 * eps * k^(1/q) under eps-perturbations
    for _ in range(30):
        m = int(rng.integers(3, 7))
        pts = rng.uniform(0, 10, size=(m, 2))
        diffs = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        min_d = diffs[diffs > 0].min() if m > 1 else 1.0
        eps = rng.uniform(0.01, 0.49) * min_d / 2
        noise = rng.normal(size=pts.shape)
        noise *= eps / np.linalg.norm(noise, axis=1, keepdims=True)
        k = m - 1
        P = pdd(PointCloud(pts), k)
        Q = pdd(PointCloud(pts + noise), k)
        for q, kq in ((1, k), (2, math.sqrt(k)), (INF, 1.0)):
            assert pdd_dist(P, Q, q) <= 2 * eps * kq + 1e-9


def test_pdd_complete_for_small_clouds(rng):
    # clouds of 2..4 points with k = m-1: isometric copies at distance 0
    for _ in range(50):
        m = int(rng.integers(2, 5))
        pts = rng.normal(size=(m, 3))
        Rm, t = random_isometry(rng, 3)
        d = pdd_dist(
            pdd(PointCloud(pts), m - 1), pdd(PointCloud(pts @ Rm.T + t), m - 1)
        )
        assert d < 1e-9


def test_pdd_rejects_bad_k():
    with pytest.raises(ValueError):
        pdd(T, 4)
    with pytest.raises(ValueError):
        pdd(T, 0)


def test_pdd_rejects_non_integer_k():
    for k in (2.5, 2.0, "2", None):
        with pytest.raises(ValueError, match="integer"):
            pdd(T, k)
    assert pdd(T, np.int64(2)).k == 2


@pytest.mark.parametrize(
    "invariant",
    [srd, spd, lambda A: pdd(A, 1), lambda A: sdd(A, 1), scd],
    ids=["srd", "spd", "pdd", "sdd", "scd"],
)
@pytest.mark.parametrize("points, message", [
    (np.array([[math.nan, 0.0], [1.0, 1.0]]), "non-finite coordinates"),
    (np.array([[0.0, math.inf], [1.0, 1.0]]), "non-finite coordinates"),
    (np.zeros((0, 2)), "at least one point"),
    ([], "at least one point"),
], ids=["nan", "inf", "zero-rows", "empty-list"])
def test_raw_arrays_are_checked_as_clouds(invariant, points, message):
    # srd of a raw array with a NaN returned [nan, nan]; of an empty one, []
    with pytest.raises(ValueError, match=message):
        invariant(points)


def test_raw_arrays_give_the_cloud_invariants():
    for invariant in (srd, spd, lambda A: pdd(A, 2).rows):
        assert np.array_equal(invariant(T.points.tolist()), invariant(T))


def test_collapse_rows_rejects_zero_rows():
    with pytest.raises(ValueError, match="non-empty row"):
        collapse_rows(np.zeros((0, 3)), [])
