"""Exact metric solvers: Minkowski, Hausdorff, bottleneck, LAC, EMD."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog

from conftest import bottleneck_oracle, emd_oracle
from geoinv.numcore import (
    INF,
    bottleneck,
    bottleneck_from_costs,
    emd,
    hausdorff,
    lac,
    lq_norm,
    minkowski,
    norm_exponent,
)

finite = st.floats(-1e6, 1e6, allow_nan=False)
vec = st.lists(finite, min_size=1, max_size=5)


def test_norm_exponent_accepts_inf_spellings():
    assert norm_exponent(float("inf")) is INF
    assert norm_exponent("inf") is INF
    assert norm_exponent(INF) is INF
    assert norm_exponent(2) == 2.0
    for bad in (0.5, "nan", float("-inf")):
        with pytest.raises(ValueError):
            norm_exponent(bad)


def test_lq_norm_values():
    v = np.array([3.0, -4.0])
    assert lq_norm(v, 1) == 7.0
    assert lq_norm(v, 2) == 5.0
    assert lq_norm(v, INF) == 4.0


@given(st.lists(st.tuples(finite, finite), min_size=1, max_size=6))
@settings(max_examples=50, deadline=None)
def test_minkowski_monotone_in_q(pairs):
    u = np.array([p[0] for p in pairs])
    v = np.array([p[1] for p in pairs])
    d1 = minkowski(u, v, 1)
    d2 = minkowski(u, v, 2)
    di = minkowski(u, v, INF)
    assert di <= d2 + 1e-9 * (1 + di)
    assert d2 <= d1 + 1e-9 * (1 + d2)


def test_hausdorff_simple():
    A = np.array([[0.0], [1.0]])
    B = np.array([[0.0], [3.0]])
    assert hausdorff(A, B, 2) == 2.0
    assert hausdorff(A, A, 2) == 0.0


def test_non_finite_coordinates_rejected():
    for bad in ([[math.nan, 0.0]], [[math.inf, 0.0]]):
        for q in (2.0, INF):
            with pytest.raises(ValueError, match="non-finite"):
                hausdorff(bad, [[math.inf, 0.0]], q)


def test_hausdorff_symmetry(rng):
    A = rng.normal(size=(5, 3))
    B = rng.normal(size=(8, 3))
    assert hausdorff(A, B, 2) == pytest.approx(hausdorff(B, A, 2))


def test_bottleneck_matches_exhaustive(rng):
    for i in range(200):
        m = rng.integers(1, 7)
        n = rng.integers(1, 4)
        if i % 2:
            # small integer grids: many tied costs, including ties at the optimum
            A = rng.integers(0, 3, size=(m, n)).astype(float)
            B = rng.integers(0, 3, size=(m, n)).astype(float)
        else:
            A = rng.normal(size=(m, n))
            B = rng.normal(size=(m, n))
        got = bottleneck(A, B, INF)
        want = bottleneck_oracle(A, B, math.inf)
        assert got == pytest.approx(want, abs=1e-9)


def test_bottleneck_large_chain_has_zero_matching():
    # The only zero-cost perfect matchings follow a 2k-cycle through every
    # vertex, so a depth-first augmenting search would recurse k levels deep.
    k = 3000
    costs = np.ones((k, k))
    idx = np.arange(k)
    costs[idx, idx] = 0.0
    costs[idx[:-1], idx[:-1] + 1] = 0.0
    costs[k - 1, 0] = 0.0
    assert bottleneck_from_costs(costs) == 0.0


def test_bottleneck_nan_cost_rejected():
    with pytest.raises(ValueError, match="NaN"):
        bottleneck_from_costs([[0.0, 1.0], [math.nan, 0.5]])


def test_bottleneck_empty_sets_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        bottleneck(np.zeros((0, 2)), np.zeros((0, 2)))
    with pytest.raises(ValueError, match="non-empty"):
        bottleneck_from_costs(np.zeros((0, 0)))


def test_bottleneck_size_mismatch_is_infinite():
    assert bottleneck(np.zeros((2, 2)), np.zeros((3, 2))) == math.inf


def test_lac_empty_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        lac(np.zeros((0, 0)))


def test_lac_matches_exhaustive(rng):
    import itertools

    for _ in range(50):
        k = rng.integers(1, 6)
        costs = rng.uniform(0, 10, size=(k, k))
        best = min(
            sum(costs[i, p] for i, p in enumerate(perm))
            for perm in itertools.permutations(range(k))
        )
        assert lac(costs) == pytest.approx(best / k, abs=1e-9)


def _random_distribution(rng, n):
    w = rng.uniform(0.1, 1.0, size=n)
    return w / w.sum()


def test_emd_matches_vertex_enumeration(rng):
    for _ in range(200):
        m = rng.integers(1, 5)
        n = rng.integers(1, 5)
        wp = _random_distribution(rng, m)
        wq = _random_distribution(rng, n)
        costs = rng.uniform(0, 5, size=(m, n))
        value, flow = emd(wp, wq, costs)
        assert value == pytest.approx(emd_oracle(wp, wq, costs), abs=1e-9)
        assert flow.shape == (m, n)
        assert np.allclose(flow.sum(axis=1), wp, atol=1e-9)
        assert np.allclose(flow.sum(axis=0), wq, atol=1e-9)
        assert value == pytest.approx(float((flow * costs).sum()), abs=1e-9)


def test_emd_rejects_non_finite_costs():
    w2 = np.full(2, 0.5)
    for wp, wq, costs in (
        ([1.0], w2, [[math.nan, 1.0]]),
        (w2, w2, [[0.0, math.inf], [1.0, 0.0]]),
        (w2, [0.3, 0.7], [[0.0, math.nan], [1.0, 0.0]]),
    ):
        with pytest.raises(ValueError, match="non-finite"):
            emd(wp, wq, costs)


def test_emd_identity_is_zero(rng):
    w = _random_distribution(rng, 4)
    costs = rng.uniform(0, 3, size=(4, 4))
    np.fill_diagonal(costs, 0.0)
    value, _ = emd(w, w, costs)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_emd_triangle_inequality(rng):
    # EMD with a metric ground cost satisfies the triangle inequality
    pts = rng.normal(size=(9, 2))
    costs = np.abs(pts[:, None, :] - pts[None, :, :]).max(axis=2)
    for _ in range(20):
        wa, wb, wc = (_random_distribution(rng, 9) for _ in range(3))
        dab, _ = emd(wa, wb, costs)
        dbc, _ = emd(wb, wc, costs)
        dac, _ = emd(wa, wc, costs)
        assert dac <= dab + dbc + 1e-9


def _transport_lp(wp, wq, costs):
    """Optimum of the balanced transportation LP solved directly by HiGHS."""
    m, n = costs.shape
    A_eq = sparse.vstack(
        [sparse.kron(sparse.eye(m), np.ones((1, n))), sparse.kron(np.ones((1, m)), sparse.eye(n))]
    )
    res = linprog(costs.ravel(), A_eq=A_eq, b_eq=np.concatenate([wp, wq]), bounds=(0, None))
    assert res.success
    return float(res.fun)


def _uniform_cases(rng, sizes):
    for m in sizes:
        w = np.full(m, 1.0 / m)
        yield w, rng.uniform(0, 5, size=(m, m))
        # small integer costs: many tied optimal assignments
        yield w, rng.integers(0, 3, size=(m, m)).astype(float)
    yield np.full(3, 1.0 / 3), np.zeros((3, 3))


def _assert_permutation_flow(flow, costs, value):
    m = len(flow)
    assert set(np.unique(flow)) <= {0.0, 1.0 / m}
    assert (flow.sum(axis=0) == 1.0 / m).all() and (flow.sum(axis=1) == 1.0 / m).all()
    assert np.count_nonzero(flow) == m
    assert value == pytest.approx(float((flow * costs).sum()), abs=1e-12)


def test_emd_uniform_equal_sizes_matches_vertex_enumeration(rng):
    for w, costs in _uniform_cases(rng, [2, 3, 4] * 20):
        value, flow = emd(w, w, costs)
        assert value == pytest.approx(emd_oracle(w, w, costs), abs=1e-9)
        _assert_permutation_flow(flow, costs, value)


def test_emd_uniform_equal_sizes_matches_lp(rng):
    for w, costs in _uniform_cases(rng, [5, 17, 60, 160]):
        value, flow = emd(w, w, costs)
        assert value == pytest.approx(_transport_lp(w, w, costs), abs=1e-12)
        _assert_permutation_flow(flow, costs, value)


def test_emd_non_assignment_inputs_match_vertex_enumeration(rng):
    # uniform weights of different sizes, and equal sizes with unequal weights
    cases = [(np.full(m, 1.0 / m), np.full(n, 1.0 / n)) for m, n in ((2, 3), (4, 2), (3, 4))]
    cases += [(_random_distribution(rng, m), np.full(m, 1.0 / m)) for m in (2, 3, 4)]
    for wp, wq in cases:
        costs = rng.integers(0, 3, size=(len(wp), len(wq))).astype(float)
        value, flow = emd(wp, wq, costs)
        assert value == pytest.approx(emd_oracle(wp, wq, costs), abs=1e-9)
        assert np.allclose(flow.sum(axis=1), wp, atol=1e-9)
        assert np.allclose(flow.sum(axis=0), wq, atol=1e-9)
