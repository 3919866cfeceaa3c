"""Exact metric solvers: Minkowski, Hausdorff, bottleneck, LAC, EMD."""

from __future__ import annotations

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog

from conftest import _ref_bottleneck_from_costs, bottleneck_oracle, emd_oracle, random_isometry
from geoinv import numcore
from geoinv.clouds import pdd, pdd_dist, spd
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


def test_norm_exponent_parses_strings_with_float():
    # an unparsable string ended in "could not convert string to float"
    for text in ("inf", " Infinity ", "+inf", "+Infinity", "INF", "1e400"):
        assert norm_exponent(text) is INF
    assert norm_exponent(" 2.5 ") == 2.5
    for bad in ("banana", "", "2 3", "inf inf"):
        with pytest.raises(ValueError, match=re.escape(f"cannot interpret exponent {bad!r}")):
            norm_exponent(bad)
    P = pdd(np.eye(3), 2)
    with pytest.raises(ValueError, match="cannot interpret exponent 'banana'"):
        pdd_dist(P, P, q="banana")


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
    for k in (6, 8, 12):  # k <= ENUMERATION_MAX_K makes no _feasible call
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


def test_small_stacks_are_enumerated_without_a_search(rng, monkeypatch):
    # k <= ENUMERATION_MAX_K never reaches _feasible and equals the full search
    def no_search(costs, t):
        raise AssertionError("k <= ENUMERATION_MAX_K reached _feasible")

    monkeypatch.setattr(numcore, "_feasible", no_search)
    assert numcore.ENUMERATION_MAX_K == 5
    stacks = []
    for k in range(1, 6):
        for shape in ((30,), (5, 6), (1,), (1, 1)):
            stacks.append(_mixed_stack(rng, shape, k))
    # a stack of 5 x 5 matrices over two blocks and a part of a third
    per_block = numcore.ENUMERATION_BLOCK // math.factorial(5)
    stacks.append(_mixed_stack(rng, (2 * per_block + 7,), 5))
    for costs in stacks:
        got = bottleneck_from_costs(costs)
        assert isinstance(got, np.ndarray) and got.shape == costs.shape[:-2]
        for idx in np.ndindex(got.shape):
            assert got[idx] == _ref_bottleneck_from_costs(costs[idx])
    single = bottleneck_from_costs(stacks[-1][3])
    assert isinstance(single, float) and single == got[3]
    assert bottleneck_from_costs(np.zeros((0, 4, 4))).shape == (0,)


def test_enumeration_memory_stays_within_its_blocks(rng):
    # besides its output, the enumeration holds two blocks of float cells:
    # the running maximum and one gathered column
    costs = rng.random((100_000, 5, 5))
    tracemalloc.start()
    try:
        got = bottleneck_from_costs(costs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - got.nbytes < 2 * 8 * numcore.ENUMERATION_BLOCK + (64 << 10)


def test_bottleneck_rejects_points_that_are_not_2d(rng):
    # atleast_2d kept the leading axis of X[None], so |X| read as 1 and the
    # distance came back inf
    X, Y = rng.random((4, 2)), rng.random((4, 2))
    for A, B in ((X[None], Y), (X, Y[None]), (X[None], Y[None])):
        with pytest.raises(ValueError, match="2-D point arrays"):
            bottleneck(A, B)


def test_bottleneck_nan_cost_rejected():
    with pytest.raises(ValueError, match="NaN"):
        bottleneck_from_costs([[0.0, 1.0], [math.nan, 0.5]])
    # one NaN among infinite costs, in a stack on either path
    for k in (2, 8):
        costs = np.full((3, k, k), np.inf)
        costs[1, 0, k - 1] = math.nan
        with pytest.raises(ValueError, match="NaN"):
            bottleneck_from_costs(costs)


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


def test_bottleneck_reads_the_exponent_before_the_sizes():
    # unequal sizes returned inf before the exponent was read
    A = np.arange(12.0).reshape(4, 3)
    for q, message in (("banana", "interpret exponent"), (0.5, "q >= 1"), (None, "exponent")):
        with pytest.raises(ValueError, match=message):
            bottleneck(A, A[:3], q)
    assert bottleneck(A, A[:3], "inf") == math.inf


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


def test_emd_rejects_nan_weights():
    # a NaN weight passed the positivity and sum checks and reached linprog
    costs = [[0.0, 1.0], [1.0, 0.0]]
    for wp, wq in (([math.nan, 1.0], [0.5, 0.5]), ([0.5, 0.5], [1.0, math.nan])):
        with pytest.raises(ValueError, match="weights must be positive"):
            emd(wp, wq, costs)


def _near_copy_costs(rng, k, delta=1e-6):
    """Distances from k random points to a copy moved by noise of size delta."""
    A = rng.normal(size=(k, 3))
    return numcore._pairwise(A, A + rng.normal(scale=delta, size=A.shape))


def test_argmin_certificate_keeps_bottlenecks_exact(rng):
    # near copies settle by the certificate, unrelated points mostly do not;
    # both agree with the search over every distinct cost
    certified = 0
    for trial in range(120):
        k = (6, 7, 9, 16, 40)[trial % 5]
        costs = _near_copy_costs(rng, k) if trial % 2 else rng.random((k, k))
        certified += numcore._argmin_map(costs)[1]
        assert bottleneck_from_costs(costs) == _ref_bottleneck_from_costs(costs)
    assert certified >= 60
    for trial in range(60):
        m = (6, 7, 8)[trial % 3]
        A = rng.normal(size=(m, 2))
        B = A + rng.normal(scale=1e-3, size=A.shape) if trial % 2 else rng.normal(size=(m, 2))
        assert bottleneck(A, B, INF) == bottleneck_oracle(A, B, math.inf)


def test_argmin_certificate_edge_cases(monkeypatch):
    def no_search(costs, t):
        raise AssertionError("a certified matrix reached _feasible")

    # only the column-argmin map is a permutation: rows 0 and 1 both take column 1
    costs = np.full((6, 6), 10.0)
    np.fill_diagonal(costs, 1.0)
    costs[0, 0], costs[0, 1] = 3.0, 2.0
    assert not numcore._argmin_map(costs)[1] and numcore._argmin_map(costs.T)[1]
    want = _ref_bottleneck_from_costs(costs)
    # infinite costs off the permutation, and an infinite row minimum
    far = np.where(np.eye(7) > 0, 0.5, np.inf)
    endless = far.copy()
    endless[0] = np.inf  # its argmin is column 0, which no other row takes
    monkeypatch.setattr(numcore, "_feasible", no_search)
    assert want == 3.0 and numcore._searched(costs[None])[0] == want
    assert numcore._searched(np.array([[[2.5]]]))[0] == 2.5
    assert numcore._searched(far[None])[0] == 0.5
    assert numcore._searched(endless[None])[0] == np.inf
    assert numcore._argmin_map(np.array([[4.0]])) == (np.array([0]), True)
    # a wide matrix is never a permutation
    assert not numcore._argmin_map(np.eye(3, 4))[1]


def test_uniform_emd_certificate_equals_the_assignment(rng, monkeypatch):
    certified, cases = 0, []
    for trial in range(60):
        k = (2, 3, 6, 17, 60)[trial % 5]
        costs = _near_copy_costs(rng, k) if trial % 3 else rng.random((k, k))
        cases.append(costs)
        certified += numcore._argmin_map(costs)[1]
    got = [emd(np.full(len(c), 1 / len(c)), np.full(len(c), 1 / len(c)), c) for c in cases]
    monkeypatch.setattr(numcore, "_argmin_map", lambda costs: (costs.argmin(axis=1), False))
    for costs, (value, flow) in zip(cases, got):
        w = np.full(len(costs), 1 / len(costs))
        want, want_flow = emd(w, w, costs)
        # every row minimum is strict in these seeded costs, so the optimum is unique
        assert (np.sort(costs, axis=1)[:, 0] < np.sort(costs, axis=1)[:, 1]).all()
        assert value == want and np.array_equal(flow, want_flow)
    assert certified >= 30


def test_uniform_emd_certificate_with_ties_is_optimal(rng):
    # integer costs whose row-argmin map is a permutation, the first least
    # cost of each row, with later ties in most rows
    tied = 0
    for trial in range(60):
        m = (2, 3, 4)[trial % 3]
        perm = rng.permutation(m)
        low = rng.integers(0, 2, size=(m, 1)).astype(float)
        costs = low + rng.integers(0, 3, size=(m, m))
        before = np.arange(m) < perm[:, None]
        costs[before] = np.maximum(costs[before], (low + 1).repeat(m, axis=1)[before])
        costs[np.arange(m), perm] = low[:, 0]
        assert numcore._argmin_map(costs)[1]
        tied += (np.sort(costs, axis=1)[:, 1] == low[:, 0]).any()
        w = np.full(m, 1 / m)
        value, flow = emd(w, w, costs)
        assert abs(value - emd_oracle(w, w, costs)) <= 1e-12
        assert (flow.sum(axis=1) == w).all() and (flow.sum(axis=0) == w).all()
    assert tied >= 20


def _symmetric_cloud(r, s):
    """A centre, the square (±r, 0), (0, ±r) and the square (±s, ±s): 9
    points whose PDD collapses exactly to 3 rows of weights 1/9, 4/9, 4/9."""
    inner = [(r, 0), (0, r), (-r, 0), (0, -r)]
    outer = [(s, s), (-s, s), (-s, -s), (s, -s)]
    return np.array([(0.0, 0.0)] + inner + outer)


def test_weighted_emd_certificate_matches_the_oracle(rng, monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("a certified pair reached linprog")

    monkeypatch.setattr(numcore, "linprog", no_lp)
    for _ in range(20):
        r, s = rng.uniform(1.0, 1.5), rng.uniform(2.0, 3.0)
        dr, ds = rng.normal(scale=1e-3, size=2)
        X, Y = _symmetric_cloud(r, s), _symmetric_cloud(r + dr, s + ds)
        P, Q = pdd(X, 4), pdd(Y, 4)
        assert len(P) == len(Q) == 3 and len(set(P.weights)) == 2
        costs = numcore._pairwise(P.rows, Q.rows, INF)
        value, flow = emd(P.weights, Q.weights, costs)
        assert abs(value - emd_oracle(P.weights, Q.weights, costs)) <= 1e-12
        assert (flow.sum(axis=1) == P.weights).all() and (flow.sum(axis=0) == Q.weights).all()


def test_near_copies_need_no_solver(rng, monkeypatch):
    # without the argmin certificate each of these calls runs an
    # assignment, a matching or an LP
    A = rng.normal(size=(40, 3))
    B = A + rng.normal(scale=1e-6, size=A.shape)
    rot, shift = random_isometry(rng, 3)
    w = rng.random(12)
    w /= w.sum()
    pts = rng.normal(size=(12, 2))
    costs = numcore._pairwise(pts, pts + rng.normal(scale=1e-6, size=pts.shape))
    want = bottleneck(A, B), pdd_dist(pdd(A, 10), pdd(A @ rot.T + shift, 10)), emd(w, w, costs)[0]

    def no_solver(*args, **kwargs):
        raise AssertionError("a near copy reached a solver")

    for name in ("linear_sum_assignment", "linprog", "_feasible"):
        monkeypatch.setattr(numcore, name, no_solver)
    got = bottleneck(A, B), pdd_dist(pdd(A, 10), pdd(A @ rot.T + shift, 10)), emd(w, w, costs)[0]
    assert got == want
    assert want[0] == numcore._pairwise(A, B).diagonal().max()  # the largest displacement


def test_point_distance_matrices_are_bounded_by_their_budget(rng, monkeypatch):
    # at the budget each call returns; one cell over it raises before cdist runs
    X, Y = rng.normal(size=(6, 2)), rng.normal(size=(4, 2))
    calls = (
        (lambda: pdd(X, 3), 36),
        (lambda: spd(X), 36),
        (lambda: bottleneck(X, X + 0.1), 36),
        (lambda: hausdorff(X, Y), 24),
    )

    def no_cdist(*args, **kwargs):
        raise AssertionError("distance matrix built over the budget")

    for call, cells in calls:
        monkeypatch.setattr(numcore, "PAIRWISE_CELL_BUDGET", cells)
        call()
        monkeypatch.setattr(numcore, "PAIRWISE_CELL_BUDGET", cells - 1)
        with monkeypatch.context() as patch:
            patch.setattr(numcore, "cdist", no_cdist)
            with pytest.raises(ValueError, match=f"need {cells} matrix cells, over the budget"):
                call()


class _KnownCosts:
    """A cost matrix C read the way ``emd_from_bounds`` reads it: bounds
    C -/+ slack, which meet on the entries of ``exact_rows`` (or where
    ``exact`` is set) only, and exact entries, counted in ``taken[0]`` by C
    and its transpose together."""

    def __init__(self, costs, slack, exact_rows=(), exact=None):
        self.costs, self.shape, self.slack = costs, costs.shape, slack
        self.low = np.maximum(costs - slack, 0.0)
        self.exact_at = np.isin(np.arange(len(costs)), exact_rows)[:, None] if exact is None else exact
        self.exact_at = np.broadcast_to(self.exact_at, costs.shape)
        self.taken = [0]

    def lower(self):
        return self.low.copy()

    def bounds(self, rows, cols):
        at = self.exact_at[rows, cols]
        hi = np.where(at, self.costs[rows, cols], self.costs[rows, cols] + self.slack[rows, cols])
        return np.where(at, hi, self.low[rows, cols]), hi

    def exact(self, rows, cols):
        self.taken[0] += len(rows)
        return self.costs[rows, cols]

    def full(self):
        self.taken[0] += self.costs.size
        return self.costs.copy()


def test_emd_from_bounds_equals_emd_on_known_matrices(rng):
    # near-identity, shuffled and unrelated matrices with loose or tight
    # bounds: the value is emd's float in either orientation, and a near
    # copy with tight bounds takes few exact entries
    for trial in range(60):
        m = 3 + trial % 9
        w = np.full(m, 1.0 / m)
        perm = rng.permutation(m) if trial % 3 else np.arange(m)
        costs = rng.uniform(1.0, 2.0, size=(m, m))
        if trial % 4 != 3:  # a near copy: its assignment costs far less
            costs[np.arange(m), perm] = rng.uniform(0.0, 0.01, size=m)
        slack = rng.uniform(0.0, 0.5 if trial % 2 else 1e-3, size=(m, m))
        for C in (costs, costs.T.copy()):
            known = _KnownCosts(C, slack, exact_rows=np.arange(m) if trial % 5 == 0 else ())
            assert numcore.emd_from_bounds(w, w, known) == emd(w, w, C)[0]
            if trial % 4 != 3 and trial % 2 == 0:
                assert known.taken[0] <= 3 * m
