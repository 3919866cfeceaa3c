"""Exact metric solvers: Minkowski, Hausdorff, bottleneck, LAC, EMD."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog

from conftest import bottleneck_oracle, emd_oracle
from geoinv import numcore
from geoinv.numcore import (
    INF,
    _feasible,
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


def _ref_bottleneck_from_costs(costs):
    """Binary search over all distinct costs, with no bound step."""
    costs = np.asarray(costs, dtype=float)
    cand = np.unique(costs)
    lo, hi = 0, len(cand) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        above = costs > cand[mid]
        if above[linear_sum_assignment(above)].any():
            lo = mid + 1
        else:
            hi = mid
    return float(cand[lo])


def test_bound_first_bottleneck_equals_full_search(rng):
    # random, integer-tied and partly infinite matrices, 1x1 up to 160x160;
    # both the bound and the search above it are taken many times
    sizes = [1, 2, 3, 4, 5, 6, 8, 11, 16, 40, 160]
    settled = 0
    for trial in range(330):
        k = sizes[trial % len(sizes)]
        kind = trial // len(sizes) % 3
        if kind == 0:
            costs = rng.random((k, k))
        elif kind == 1:
            costs = rng.integers(0, 4, size=(k, k)).astype(float)
        else:
            costs = rng.random((k, k))
            costs[rng.random((k, k)) < 0.3] = np.inf
        want = _ref_bottleneck_from_costs(costs)
        assert bottleneck_from_costs(costs) == want
        settled += want == max(costs.min(axis=1).max(), costs.min(axis=0).max())
    assert 30 < settled < 300


def _mixed_stack(rng, shape, k):
    """Random, integer-tied and partly infinite k x k cost matrices, mixed."""
    costs = rng.random(shape + (k, k))
    kind = rng.integers(0, 3, size=shape)
    costs[kind == 1] = rng.integers(0, 4, size=costs[kind == 1].shape)
    partly = costs[kind == 2]
    partly[rng.random(partly.shape) < 0.3] = np.inf
    costs[kind == 2] = partly
    return costs


def test_stacked_bottleneck_equals_full_search_per_matrix(rng):
    settled = searched = 0
    for k in range(1, 13):
        for shape in ((30,), (5, 6), (1,), (1, 1)):
            costs = _mixed_stack(rng, shape, k)
            got = bottleneck_from_costs(costs)
            assert isinstance(got, np.ndarray) and got.shape == shape
            for idx in np.ndindex(shape):
                want = _ref_bottleneck_from_costs(costs[idx])
                assert got[idx] == want
                assert bottleneck_from_costs(costs[idx]) == want
                bound = max(costs[idx].min(axis=1).max(), costs[idx].min(axis=0).max())
                settled += want == bound
                searched += want != bound
    assert settled > 100 and searched > 100


def test_feasible_matching_and_assignment_agree(rng):
    # the Hopcroft-Karp branch (a stack) and the assignment branch (one
    # matrix) on seeded 0/1 matrices of several densities
    for k in (1, 2, 3, 5, 8, 12):
        for density in (0.2, 0.5, 0.8):
            costs = (rng.random((40, k, k)) > density).astype(float)
            t = np.full(40, 0.5)
            matched = _feasible(costs, t)
            assigned = [_feasible(costs[i : i + 1], t[i : i + 1])[0] for i in range(40)]
            assert matched.tolist() == assigned
    costs = (rng.random((400, 4, 4)) > 0.5).astype(float)
    feasible = _feasible(costs, np.full(400, 0.5))
    assert 50 < feasible.sum() < 350


def test_stacked_search_step_count_is_bounded_and_repeatable(rng, monkeypatch):
    # one _feasible call for the bounds, then at most ceil(log2 k^2) steps
    # of the binary search over the k^2 sorted costs of the unsettled ones
    real = numcore._feasible

    def counted(costs, t):
        calls.append(len(costs))
        assert len(calls) <= limit, "too many search steps"
        return real(costs, t)

    monkeypatch.setattr(numcore, "_feasible", counted)
    searches = []
    for k in (2, 3, 5, 8, 12):
        limit = 1 + math.ceil(math.log2(k * k))
        costs = _mixed_stack(rng, (40,), k)
        counts = []
        for _ in range(2):
            calls = []
            bottleneck_from_costs(costs)
            counts.append(calls)
        assert counts[0] == counts[1] and counts[0][0] == 40
        searches.append(len(counts[0]) - 1)
    assert max(searches) > 1


def test_bottleneck_nan_cost_rejected():
    with pytest.raises(ValueError, match="NaN"):
        bottleneck_from_costs([[0.0, 1.0], [math.nan, 0.5]])


def test_bottleneck_empty_sets_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        bottleneck(np.zeros((0, 2)), np.zeros((0, 2)))
    with pytest.raises(ValueError, match="non-empty"):
        bottleneck_from_costs(np.zeros((0, 0)))
    # np.atleast_2d([]) is one point with no coordinates, which matched at 0.0
    for A, B in (([], []), ([], [[0.0, 1.0]]), (np.zeros((3, 0)), np.zeros((3, 0)))):
        with pytest.raises(ValueError, match="bottleneck requires non-empty sets"):
            bottleneck(A, B)


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



def test_emd_lp_over_cell_budget_rejected_before_building(monkeypatch):
    # the largest LP of the budget runs; one cell more is refused
    wp, wq = np.full(3, 1 / 3), np.array([0.5, 0.5])
    monkeypatch.setattr(numcore, "EMD_CELL_BUDGET", 4 * 3 * 2)
    assert emd(wp, wq, np.ones((3, 2)))[0] == pytest.approx(1.0)
    monkeypatch.setattr(numcore, "EMD_CELL_BUDGET", 4 * 3 * 2 - 1)
    with pytest.raises(ValueError, match="24 constraint cells"):
        emd(wp, wq, np.ones((3, 2)))
    monkeypatch.undo()

    # 1000 against 999 weighted rows would need a 1998 x 999000 dense A_eq
    def no_lp(*args, **kwargs):
        raise AssertionError("LP built over the budget")

    monkeypatch.setattr(numcore, "linprog", no_lp)
    monkeypatch.setattr(numcore.np, "kron", no_lp)
    m, n = 1000, 999
    with pytest.raises(ValueError, match="over the budget"):
        emd(np.full(m, 1 / m), np.full(n, 1 / n), np.ones((m, n)))
