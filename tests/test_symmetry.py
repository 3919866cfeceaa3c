"""Exact symmetry of the metrics on pairs: d(A, B) == d(B, A).

Each metric puts its pair in one order before it does any work: ``emd``
orients the costs, ``sdd_dist``/``scd_dist`` the two distributions before
any cost is built, and ``seq_metric`` the two sequences, each by the first
differing key of ``numcore._swapped``; ``lac`` solves the costs or their
transpose, whichever has the lesser bytes.  Both argument orders then run
the same steps.  Inputs are seeded and small; sizes are mixed so that the
one-point, assignment and LP paths of ``emd``, the bound-first path of
``numcore.emd_from_bounds`` and equal and unequal motif sizes are reached.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from geoinv import (
    OnePeriodicSequence, PeriodicSet, emd, lac, pda_dist, pdd, pdd_dist, scd, scd_dist, sdd,
    sdd_dist, seq_metric, simplexwise,
)
from geoinv.numcore import INF


def _weights(rng, n):
    w = rng.uniform(0.1, 1.0, n)
    return w / w.sum()


def test_emd_value_and_flow_transpose_exactly():
    rng = np.random.default_rng(11)
    for m, n in [(5, 7)] * 30 + [(1, 4), (4, 1), (4, 4), (6, 6)] * 5:
        wp, wq = _weights(rng, m), _weights(rng, n)
        costs = rng.uniform(0, 3, (m, n))
        if m == n and rng.random() < 0.5:
            wp = wq = np.full(m, 1.0 / m)  # the assignment path
        value, flow = emd(wp, wq, costs)
        back, back_flow = emd(wq, wp, costs.T)
        assert back == value
        assert np.array_equal(back_flow, flow.T)


def test_lac_of_the_transpose_is_equal():
    rng = np.random.default_rng(12)
    for _ in range(40):
        costs = rng.uniform(0, 1, (6, 6))
        assert lac(costs.T) == lac(costs)


@pytest.mark.parametrize("q, rms", [(INF, False), (1, False), (2, True)])
def test_pdd_dist_is_symmetric(q, rms):
    rng = np.random.default_rng(13)
    for _ in range(25):
        P = pdd(rng.normal(size=(int(rng.integers(3, 9)), 3)), 2)
        Q = pdd(rng.normal(size=(int(rng.integers(3, 9)), 3)), 2)
        assert pdd_dist(Q, P, q, rms) == pdd_dist(P, Q, q, rms)


@pytest.mark.parametrize("mode", ["emd", "lac"])
@pytest.mark.parametrize("invariant, metric", [(lambda A: sdd(A, 2), sdd_dist), (scd, scd_dist)],
                         ids=["sdd", "scd"])
def test_sdd_and_scd_dist_are_symmetric(invariant, metric, mode):
    rng = np.random.default_rng(14)
    for _ in range(12):
        X, Y = invariant(rng.normal(size=(5, 3))), invariant(rng.normal(size=(5, 3)))
        assert metric(Y, X, mode) == metric(X, Y, mode)


def _quadrilaterals(rng):
    """Seeded kites (mirror symmetric about an axis through two corners) and
    isosceles trapezia (about an axis through no corner), as the fixtures
    are: their SDDs and SCDs have merged classes and unequal class counts."""
    for _ in range(4):
        a, b, c, d = rng.uniform(1.0, 5.0, 4)
        yield np.array([[a, 0.0], [-b, 0.0], [-c / 2, d], [-c / 2, -d]])
        yield np.array([[-a / 2, c / 2], [a / 2, c / 2], [-b, -c / 2], [b, -c / 2]])


@pytest.mark.parametrize("mode", ["emd", "lac"])
def test_sdd_and_scd_dist_are_symmetric_on_near_copies_mirrors_and_merged_classes(rng, mode):
    pairs = []
    for n, m in ((2, 7), (3, 6)):
        for _ in range(4):
            pts = rng.normal(size=(m, n))
            pairs.append((pts, pts + 1e-3 * rng.normal(size=pts.shape)))
    quads = list(_quadrilaterals(rng))
    pairs += list(itertools.combinations(quads, 2))
    counts = set()
    for pts, qts in pairs:
        for h in (1, 2, 3):
            X, Y = sdd(pts, h), sdd(qts, h)
            counts.add(len(X) == len(Y))
            assert sdd_dist(Y, X, mode) == sdd_dist(X, Y, mode)
        mirror = qts * np.r_[np.ones(qts.shape[1] - 1), -1.0]
        for other in (qts, mirror):
            X, Y = scd(pts), scd(other)
            assert scd_dist(Y, X, mode) == scd_dist(X, Y, mode)
    assert counts == {True, False}


def _motif(rng, m, dim):
    t = np.sort(rng.uniform(0.0, 1.0, m))
    return OnePeriodicSequence(1.0, np.column_stack([t - t[0], rng.normal(size=(m, dim))]))


@pytest.mark.parametrize("q", [1, 2, INF])
@pytest.mark.parametrize("equivalence", ["isometry", "rigid"])
@pytest.mark.parametrize("group", ["cyclic", "dihedral"])
def test_seq_metric_is_symmetric(rng, group, equivalence, q):
    for sizes in [(5, 5), (6, 6), (4, 6), (3, 5), (2, 7)] * 4:
        S, Q = (_motif(rng, m, 2) for m in sizes)
        assert seq_metric(Q, S, q, group, equivalence) == seq_metric(S, Q, q, group, equivalence)


@pytest.mark.parametrize("invariant, metric", [(lambda A: sdd(A, 2), sdd_dist), (scd, scd_dist)],
                         ids=["sdd", "scd"])
def test_distance_to_itself_goes_bound_first(rng, monkeypatch, invariant, metric):
    # the lower bounds of (X, X) equal their transpose, and the pair still
    # goes bound-first: the whole matrix is never built, and the value is 0
    def refuse(self):
        raise AssertionError("built the whole matrix")

    monkeypatch.setattr(simplexwise._Costs, "full", refuse)
    for n in (2, 3):
        X = invariant(rng.normal(size=(6, n)))
        assert len(X) > 1 and (X.weights == X.weights[0]).all()
        for mode in ("emd", "lac"):
            assert metric(X, X, mode) == 0.0


def test_pda_dist_is_symmetric():
    rng = np.random.default_rng(15)
    sets = [
        PeriodicSet.from_fractional(np.eye(3) + rng.uniform(-0.2, 0.2, (3, 3)),
                                    rng.uniform(0, 1, (int(rng.integers(1, 4)), 3)))
        for _ in range(12)
    ]
    for S, Q in zip(sets[::2], sets[1::2]):
        for q in (INF, 2):
            assert pda_dist(Q, S, 6, q) == pda_dist(S, Q, 6, q)
