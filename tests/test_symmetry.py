"""Exact symmetry of the EMD- and LAC-based metrics: d(A, B) == d(B, A).

The cost matrix of a swapped pair is the exact transpose of the unswapped
one, so symmetry rests on ``emd`` and ``lac`` solving one orientation of
each pair.  Inputs are seeded and small; sizes are mixed so that the
one-point, assignment and LP paths of ``emd`` are all reached.
"""

from __future__ import annotations

import numpy as np
import pytest

from geoinv import PeriodicSet, emd, lac, pda_dist, pdd, pdd_dist, scd, scd_dist, sdd, sdd_dist
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
