"""Periodic-set invariants: PDD/AMD/PPC, deviations, metrics and dedup."""

from __future__ import annotations

import itertools
import math
import types

import numpy as np
import pytest

from geoinv import periodic
from geoinv.clouds import pdd_dist
from geoinv.numcore import INF, _pairwise
from geoinv.periodic import (
    PeriodicSet,
    amd,
    cell_to_basis,
    dedup,
    deviations,
    lnd,
    neighbours,
    pda_dist,
    pdd_periodic,
    ppc,
)

Z3 = PeriodicSet(np.eye(3), np.zeros((1, 3)))


def test_cell_to_basis_cubic():
    assert cell_to_basis(1, 1, 1, 90, 90, 90) == pytest.approx(np.eye(3), abs=1e-12)


def test_cell_to_basis_rejects_flat_cell():
    with pytest.raises(ValueError):
        cell_to_basis(1, 1, 1, 179.9, 0.2, 90)


def test_z3_pdd_single_row():
    P = pdd_periodic(Z3, 10, collapse_tol=1e-9)
    assert len(P.rows) == 1
    assert P.weights == pytest.approx([1.0])
    assert P.rows[0][:6] == pytest.approx([1.0] * 6, abs=1e-9)
    assert P.rows[0][6:10] == pytest.approx([math.sqrt(2)] * 4, abs=1e-9)


def test_z3_amd_asymptotic():
    a = amd(Z3, 1000)
    c = ppc(Z3)
    assert abs(a[-1] / 1000 ** (1 / 3) - c) / c <= 0.05


def test_ppc_z3():
    # cell volume 1, one point, unit-ball volume 4*pi/3
    assert ppc(Z3) == pytest.approx((3 / (4 * math.pi)) ** (1 / 3), abs=1e-12)


def test_motif_doubling_invariance():
    doubled = PeriodicSet(
        np.diag([2.0, 1.0, 1.0]), np.array([[0, 0, 0], [1, 0, 0]], float)
    )
    d = pdd_dist(pdd_periodic(Z3, 20), pdd_periodic(doubled, 20), INF)
    assert d < 1e-9
    assert np.abs(amd(Z3, 20) - amd(doubled, 20)).max() < 1e-9


def _isotropic_box_neighbours(S, k):
    """Reference search: one coefficient box sized by the smallest plane gap,
    grown until (R + 1) * gap - diam reaches the largest k-th distance."""
    basis, motif = S.basis, S.motif
    l, m = S.rank, len(motif)
    diam = float(_pairwise(motif, motif).max())
    gap = 1.0 / math.sqrt(np.max(np.diag(np.linalg.inv(basis @ basis.T))))
    R = max(2, math.ceil((ppc(S) * (k / m + 1) ** (1.0 / l) + diam) / gap))
    while True:
        box = [np.arange(-R, R + 1)] * l
        coeffs = np.stack(np.meshgrid(*box, indexing="ij"), axis=-1).reshape(-1, l)
        pts = (motif[None, :, :] + (coeffs @ basis)[:, None, :]).reshape(-1, S.dim)
        rows = np.sort(_pairwise(motif, pts), axis=1)[:, 1 : k + 1]
        if rows.shape[1] < k:
            R *= 2
            continue
        kth_max = rows[:, -1].max()
        if (R + 1) * gap - diam >= kth_max:
            return rows
        R = max(R + 1, math.ceil((kth_max + diam) / gap))


def test_neighbours_match_brute_force(rng):
    # certificate-based search equals a generously oversized brute box
    for _ in range(10):
        basis = rng.normal(size=(3, 3))
        while abs(np.linalg.det(basis)) < 0.3:
            basis = rng.normal(size=(3, 3))
        m = int(rng.integers(1, 4))
        motif = rng.uniform(0, 1, size=(m, 3)) @ basis
        S = PeriodicSet(basis, motif)
        k = 12
        got = neighbours(S, k)
        R = 8
        rng_box = np.arange(-R, R + 1)
        coeffs = np.stack(
            np.meshgrid(rng_box, rng_box, rng_box, indexing="ij"), axis=-1
        ).reshape(-1, 3)
        pts = (S.motif[None, :, :] + (coeffs @ basis)[:, None, :]).reshape(-1, 3)
        d = np.sqrt(((S.motif[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        d = np.sort(d, axis=1)[:, 1 : k + 1]
        assert got == pytest.approx(d, abs=1e-9)
        assert np.array_equal(got, _isotropic_box_neighbours(S, k))
    # long, flat and sheared cells, and a rank-2 lattice in R^3 whose motif
    # leaves the lattice plane: exactly the isotropic-box search
    cells = [
        cell_to_basis(1, 1, 8, 90, 90, 90),
        cell_to_basis(8, 1, 1, 90, 90, 90),
        cell_to_basis(1, 8, 2, 90, 90, 90),
        cell_to_basis(2, 3, 4, 60, 75, 110),
        cell_to_basis(1, 1, 1, 50, 60, 70),
        cell_to_basis(1, 4, 8, 100, 80, 120),
        cell_to_basis(1, 2, 8, 30, 40, 35),
        np.array([[1.0, 0.0, 0.0], [0.3, 2.0, 0.5]]),
        np.array([[4.0, 1.0, 0.0], [0.5, 0.5, 0.0]]),
    ]
    for basis in cells:
        l = len(basis)
        for m in (1, 3):
            frac = rng.uniform(0, 1, size=(m, l))
            offset = rng.normal(scale=0.4, size=(m, 3)) * (l < 3) * [0, 0, 1]
            S = PeriodicSet.from_fractional(basis, frac)
            S = PeriodicSet(basis, S.motif + offset)
            for k in (12, 40):
                assert np.array_equal(neighbours(S, k), _isotropic_box_neighbours(S, k))


def test_neighbours_exact_from_a_small_start(rng, monkeypatch):
    # a first radius at or far below the k-th distance makes the search grow
    # its candidate set and certify where the k-th distance is close to r
    for _ in range(60):
        cell = [*rng.uniform(1, 3, size=3), *rng.uniform(70, 110, size=3)]
        frac = rng.uniform(0, rng.choice([0.1, 0.5, 1.0]), size=(int(rng.integers(2, 4)), 3))
        S = PeriodicSet.from_fractional(cell_to_basis(*cell), frac)
        k = int(rng.integers(1, 40))
        scale = rng.choice([1.0, 0.3, 1e-3])
        monkeypatch.setattr(periodic, "ppc", lambda S: scale * ppc(S))
        assert np.array_equal(neighbours(S, k), _isotropic_box_neighbours(S, k))


def test_thin_cell_neighbours():
    # the isotropic box sized by the 1e-4 gap would hold 1049^3 translates
    S = PeriodicSet(np.diag([1.0, 1.0, 1e-4]), np.zeros((1, 3)))
    rows = neighbours(S, 100)
    assert rows.shape == (1, 100)
    assert rows[0] == pytest.approx(np.repeat(np.arange(1, 51) * 1e-4, 2), rel=1e-12)


def test_neighbour_budget_checked_before_allocating(monkeypatch):
    def no_box(*args):
        raise AssertionError("translates built before the budget check")

    monkeypatch.setattr(periodic, "_lattice_ball", no_box)
    with pytest.raises(ValueError, match="budget"):
        neighbours(Z3, 10**9)
    with pytest.raises(ValueError, match="budget"):
        neighbours(Z3, 10**400)
    # k = 1000 on Z^3 needs the 13^3 box of radius 6, 6 cells per translate
    monkeypatch.setattr(periodic, "NEIGHBOUR_CELL_BUDGET", 6 * 13**3 - 1)
    with pytest.raises(ValueError, match="1.32e\\+04 cells of coefficient box"):
        neighbours(Z3, 1000)


def test_large_motif_neighbours(rng, monkeypatch):
    # 200 points spread over a cubic cell at k = 100: the isotropic box of
    # radius 2 holds 5e6 distance cells; the first ball, of radius r + diam
    # = 20.4, holds 33 translates, so 6600 candidates and 1.3e6 cells
    S = PeriodicSet.from_fractional(10 * np.eye(3), rng.uniform(0, 1, size=(200, 3)))
    ref = _isotropic_box_neighbours(S, 100)
    assert np.array_equal(neighbours(S, 100), ref)
    calls = []

    def counted(A, B, q=2.0):
        calls.append(len(A))
        return _pairwise(A, B, q)

    monkeypatch.setattr(periodic, "_pairwise", counted)
    # blocks of a few motif rows give the same rows: 2**16 // 6600 = 9 rows
    monkeypatch.setattr(periodic, "NEIGHBOUR_CELL_BUDGET", 2**16)
    assert np.array_equal(neighbours(S, 100), ref)
    assert len(calls) > 20 and max(calls[1:]) < 10 and sum(calls[1:]) == 200
    # the candidate points (19 800 cells, the box 750) are checked before
    # any distance is taken
    calls.clear()
    monkeypatch.setattr(periodic, "NEIGHBOUR_CELL_BUDGET", 2**14)
    with pytest.raises(ValueError, match="cells of candidate points"):
        neighbours(S, 100)
    assert sum(calls) == 200 and max(calls) * 200 <= 2**14


def test_motif_diameter_within_the_neighbour_budget(rng, monkeypatch):
    # a 20-point cluster in a wide cubic cell: the diameter is taken in
    # blocks of 100 // 20 = 5 motif rows, not as one 20 x 20 matrix
    S = PeriodicSet(1000 * np.eye(3), rng.uniform(0, 1, size=(20, 3)))
    want = neighbours(S, 1)
    cells = []

    def counted(A, B, q=2.0):
        d = _pairwise(A, B, q)
        cells.append(d.size)
        return d

    monkeypatch.setattr(periodic, "_pairwise", counted)
    monkeypatch.setattr(periodic, "NEIGHBOUR_CELL_BUDGET", 100)
    assert np.array_equal(neighbours(S, 1), want)
    assert cells and max(cells) <= 100


def test_neighbours_lower_rank():
    # a 1-periodic set in R^2: points on a line plus an offset row
    S = PeriodicSet(np.array([[1.0, 0.0]]), np.array([[0.0, 0.0], [0.5, 0.3]]))
    rows = neighbours(S, 3)
    assert rows.shape == (2, 3)
    d = math.hypot(0.5, 0.3)
    assert rows[0] == pytest.approx([d, d, 1.0], abs=1e-9)


def test_deviation_shapes_and_relation():
    dev = deviations(Z3, 8)
    c = ppc(Z3)
    js = np.arange(1, 9) ** (1 / 3)
    assert dev["ada"] == pytest.approx(amd(Z3, 8) - c * js, abs=1e-12)
    assert dev["and"] == pytest.approx(amd(Z3, 8) / (c * js) - 1, abs=1e-12)
    assert dev["pda"].rows.shape == (1, 8)


def test_filter_inequality(rng):
    # L_inf(ADA gap) is a lower bound for EMD_inf on PDA matrices
    for _ in range(20):
        basis = np.eye(3) + rng.normal(scale=0.05, size=(3, 3))
        motif = rng.uniform(0, 1, size=(2, 3)) @ basis
        S = PeriodicSet(basis, motif)
        Q = PeriodicSet(
            basis + rng.normal(scale=0.02, size=(3, 3)),
            motif + rng.normal(scale=0.02, size=motif.shape),
        )
        k = 30
        gap = float(
            np.abs(deviations(S, k)["ada"] - deviations(Q, k)["ada"]).max()
        )
        assert gap <= pda_dist(S, Q, k) + 1e-9


def test_duplicate_motif_rejected(rng, monkeypatch):
    with pytest.raises(ValueError):
        PeriodicSet(np.eye(3), np.array([[0, 0, 0], [1, 0, 0]], float))
    # duplicate across a cell face: fractional 0 and 1 - 1e-9
    with pytest.raises(ValueError):
        PeriodicSet.from_fractional(np.eye(3), [[0.5, 0.5, 0], [0.5, 0.5, 1 - 1e-9]])
    # a later pair of a larger motif, moved by a lattice vector
    basis = np.eye(3) + rng.normal(scale=0.2, size=(3, 3))
    frac = rng.uniform(0, 1, size=(24, 3))
    PeriodicSet.from_fractional(basis, frac)
    frac[17] = frac[9] + [1, -2, 0]
    with pytest.raises(ValueError):
        PeriodicSet.from_fractional(basis, frac)
    # the last pair (m - 2, m - 1), in one block and across several
    frac = rng.uniform(0, 1, size=(24, 3))
    frac[23] = frac[22] + [0, 0, -1]
    for block in (periodic.MOTIF_PAIR_BLOCK, 100, 1):
        monkeypatch.setattr(periodic, "MOTIF_PAIR_BLOCK", block)
        with pytest.raises(ValueError):
            PeriodicSet.from_fractional(basis, frac)
        PeriodicSet.from_fractional(basis, frac[:23])


def test_dedup_finds_planted_near_duplicate(rng):
    base = PeriodicSet(np.eye(3) * 3, np.array([[0, 0, 0], [1.5, 1.5, 1.5]], float))
    near = PeriodicSet(
        np.eye(3) * 3,
        np.array([[0.001, 0, 0], [1.5, 1.499, 1.5]], float),
    )
    far = PeriodicSet(np.eye(3) * 3.4, np.array([[0, 0, 0], [1.7, 1.7, 1.7]], float))
    pairs = dedup([base, near, far], k=40, ids=["a", "b", "c"])
    assert [(p[0], p[1]) for p in pairs] == [("a", "b")]


def test_lnd_identifies_nearest():
    base = PeriodicSet(np.eye(3) * 3, np.array([[0, 0, 0], [1.5, 1.5, 1.5]], float))
    other = PeriodicSet(np.eye(3) * 3.5, np.array([[0, 0, 0]], float))
    d, ident = lnd(base, [other, base], 30, ids=["x", "y"])
    assert ident == "y"
    assert d == pytest.approx(0.0, abs=1e-12)


def _random_set(rng):
    basis = np.eye(3) * rng.uniform(2.5, 3.5) + rng.normal(scale=0.1, size=(3, 3))
    frac = rng.uniform(0, 1, size=(int(rng.integers(1, 4)), 3))
    return PeriodicSet.from_fractional(basis, frac)


def _novelty_dataset(rng):
    """20 random sets, then an exact copy of set 3 at index 20."""
    sets = [_random_set(rng) for _ in range(20)]
    return sets + [PeriodicSet(sets[3].basis.copy(), sets[3].motif.copy())]


def test_lnd_matches_exhaustive_scan(rng):
    data = _novelty_dataset(rng)
    k = 12
    motif = data[7].motif + rng.normal(scale=0.01, size=data[7].motif.shape)
    near = PeriodicSet(data[7].basis, motif)
    queries = [data[3], near, _random_set(rng)]
    ids = [f"ref{i}" for i in range(len(data))]
    for Q in queries:
        want = min((pda_dist(Q, R, k), i) for i, R in enumerate(data))
        value, idx = lnd(Q, data, k)
        assert (value, idx) == pytest.approx(want, abs=1e-12)
        assert lnd(Q, data, k, ids=ids) == (value, ids[want[1]])
    assert lnd(data[3], data, k) == (0.0, 3)


def test_lnd_prunes_by_ada_bound(rng, monkeypatch):
    data = _novelty_dataset(rng)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return pdd_dist(*args, **kwargs)

    monkeypatch.setattr(periodic, "pdd_dist", counting)
    assert lnd(data[5], data, 12) == (0.0, 5)
    assert len(calls) <= 2 < len(data)


def test_lnd_tie_at_the_bound_keeps_smallest_index(monkeypatch):
    # reference 0 ties reference 1 with an EMD equal to its own ADA gap, so
    # the scan must not stop when the gap only equals the best value
    ada, names = np.array([[0.0], [0.2], [0.1]]), ["S", "r0", "r1"]
    emds = {"r0": 0.2, "r1": 0.2}
    monkeypatch.setattr(periodic, "_ada_pda", lambda sets, k: (ada, None, names.__getitem__))
    monkeypatch.setattr(periodic, "pdd_dist", lambda P, Q, q: emds[Q])
    S, r0, r1 = (types.SimpleNamespace(rank=1) for _ in names)
    assert lnd(S, [r0, r1], 1) == (0.2, 0)


def _exhaustive_dedup(dataset, k, ada_threshold, confirm_threshold):
    """Reference dedup: the ADA filter as a loop over all pairs."""
    devs = [deviations(S, k) for S in dataset]
    results = []
    for i, j in itertools.combinations(range(len(dataset)), 2):
        gap = float(np.abs(devs[i]["ada"] - devs[j]["ada"]).max())
        if gap > ada_threshold:
            continue
        value = pdd_dist(devs[i]["pda"], devs[j]["pda"], INF)
        if value <= confirm_threshold:
            results.append((i, j, gap, value))
    results.sort(key=lambda t: (t[3], t[0], t[1]))
    return results


def test_dedup_filter_matches_exhaustive(rng, monkeypatch):
    data = [_random_set(rng) for _ in range(24)]
    data += [
        PeriodicSet(S.basis, S.motif + rng.normal(scale=0.005, size=S.motif.shape))
        for S in data[:6]
    ]
    k = 12
    ada = [deviations(S, k)["ada"] for S in data]
    gaps = sorted(
        (float(np.abs(ada[i] - ada[j]).max()), i, j)
        for i, j in itertools.combinations(range(len(data)), 2)
    )
    tie_gap, ti, tj = gaps[40]
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return pdd_dist(*args, **kwargs)

    monkeypatch.setattr(periodic, "pdd_dist", counting)
    for t, c in [(0.0, 0.0), (0.02, 0.05), (tie_gap, 1e9), (0.5, 0.1), (1e9, 1e9)]:
        calls.clear()
        got = dedup(data, k=k, ada_threshold=t, confirm_threshold=c)
        assert len(calls) == sum(g <= t for g, _, _ in gaps)
        assert got == _exhaustive_dedup(data, k, t, c)
        if t == tie_gap:
            assert (ti, tj) in [(i, j) for i, j, _, _ in got]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.01])
def test_dedup_rejects_bad_thresholds(bad):
    with pytest.raises(ValueError, match="ada_threshold"):
        dedup([Z3, Z3], k=4, ada_threshold=bad)
    with pytest.raises(ValueError, match="confirm_threshold"):
        dedup([Z3, Z3], k=4, confirm_threshold=bad)


def test_neighbours_rejects_non_integer_k():
    for k in (2.5, "3", None):
        with pytest.raises(ValueError, match="integer"):
            neighbours(Z3, k)
    assert neighbours(Z3, np.int64(6)).shape == (1, 6)


def test_lnd_and_dedup_reject_mixed_period_ranks():
    S2 = PeriodicSet(np.eye(2, 3), np.zeros((1, 3)))
    with pytest.raises(ValueError, match="period ranks differ"):
        lnd(Z3, [S2], 3)
    with pytest.raises(ValueError, match="period ranks differ"):
        lnd(Z3, [Z3, S2], 3)
    with pytest.raises(ValueError, match="period ranks differ"):
        dedup([Z3, S2], 3)
    assert lnd(S2, [S2], 3)[1] == 0


def test_pda_dist_reads_the_exponent_before_any_search(monkeypatch):
    # q was read after two neighbour searches had run
    calls = []
    monkeypatch.setattr(periodic, "neighbours", lambda S, k: calls.append(1) or neighbours(S, k))
    for q in ("banana", 0.5):
        with pytest.raises(ValueError, match="exponent"):
            pda_dist(Z3, Z3, 3, q=q)
    assert not calls
    assert pda_dist(Z3, Z3, 3, q="inf") == 0.0
    assert len(calls) == 2


@pytest.mark.parametrize(
    "basis, motif, message",
    [
        ([[np.nan, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 0, 0]], "non-finite basis"),
        (np.eye(3), [[0, np.inf, 0]], "non-finite motif"),
        (np.eye(3), np.zeros((0, 3)), "empty motif"),
        (1e200 * np.eye(3), [[0, 0, 0]], "Gram matrix overflows"),
        (1e120 * np.eye(3), [[0, 0, 0]], "cell volume overflows for cell lengths 1e\\+120"),
    ],
)
def test_periodic_set_rejects_non_finite_or_empty_input(basis, motif, message):
    with pytest.raises(ValueError, match=message):
        PeriodicSet(np.array(basis, dtype=float), np.array(motif, dtype=float))


@pytest.mark.parametrize(
    "basis, motif, message",
    [
        ([[1, 0], [0, 1], [1, 1]], [[0, 0]], "period rank exceeds the ambient dimension"),
        ([[1, 0, 0], [2, 0, 0]], [[0, 0, 0]], "basis vectors are linearly dependent"),
        (np.eye(3), [[0, 0]], "motif dimension does not match the basis"),
        (np.eye(2, 3), [[0, 0, 0, 0]], "motif dimension does not match the basis"),
    ],
)
def test_periodic_set_rejects_bad_shapes_and_bases(basis, motif, message):
    with pytest.raises(ValueError, match=message):
        PeriodicSet(np.array(basis, dtype=float), np.array(motif, dtype=float))


def test_periodic_set_rejects_rank_zero():
    # a (0, 3) basis constructed and amd ended in ZeroDivisionError in ppc
    with pytest.raises(ValueError, match="period rank must be at least 1"):
        PeriodicSet(np.zeros((0, 3)), np.zeros((1, 3)))


def test_neighbour_budget_rejects_nan_cells():
    with pytest.raises(ValueError, match="budget"):
        periodic._check_budget(math.nan, "coefficient box", 3, np.eye(3))


def test_periodic_set_rejects_a_leading_axis():
    # a (1, 3, 3) motif over a 3 x 3 basis constructed a set with that motif
    motif = np.array([[0.0, 0, 0], [0.5, 0.5, 0.5], [0.25, 0.5, 0]])
    for basis, frac in ((np.eye(3), motif[None]), (np.eye(3)[None], motif)):
        with pytest.raises(ValueError, match="2-D arrays"):
            PeriodicSet(basis, frac)
        with pytest.raises(ValueError, match="2-D arrays"):
            PeriodicSet.from_fractional(basis, frac)
