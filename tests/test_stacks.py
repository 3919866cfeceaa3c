"""Periodic sets checked as stacks and the array ``collapse_rows``: bit for
bit equal to the one-set-at-a-time reference copies in ``legacy_periodic``.
"""

from __future__ import annotations

import numpy as np
import pytest

import legacy_periodic as legacy
from geoinv import periodic
from geoinv.clouds import WeightedRows, collapse_rows
from geoinv.periodic import PeriodicSet, _sets, dedup, deviations, lnd, neighbours


def _skewed_basis(rng, l):
    """A rank-l basis in R^3 with random lengths, shear and tilt."""
    while True:
        basis = np.diag(rng.uniform(0.5, 4.0, size=3))[:l] + rng.normal(scale=0.7, size=(l, 3))
        gram = basis @ basis.T
        if np.linalg.det(gram) > 0.05 * np.prod(np.diag(gram)):
            return basis


def _random_fields(rng, count, sizes, ranks=(1, 2, 3)):
    """Bases and fractional motifs of mixed sizes and ranks."""
    fields = []
    for _ in range(count):
        l = int(rng.choice(ranks))
        fields.append((_skewed_basis(rng, l), rng.uniform(0, 1, size=(int(rng.choice(sizes)), l))))
    return fields


def _stack(fields):
    bases, fracs = zip(*fields)
    labels = [[f"X{i}"] * len(frac) for i, frac in enumerate(fracs)]
    names = [f"set{i}" for i in range(len(fields))]
    return _sets(bases, fracs, labels, names, fractional=True), labels


def _assert_same_devs(got, want):
    for key in ("ada", "and"):
        assert np.array_equal(got[key], want[key])
    for key in ("pda", "pnd"):
        assert np.array_equal(got[key].weights, want[key].weights)
        assert np.array_equal(got[key].rows, want[key].rows)


def test_stacked_sets_equal_single_sets_and_reference(rng):
    # motif sizes 1-24 and ranks 1-3 mixed in one dataset, several per group
    fields = _random_fields(rng, 120, sizes=[1, 2, 3, 5, 8, 13, 24, *range(1, 25)])
    sets, labels = _stack(fields)
    assert len({(S.rank, len(S.motif)) for S in sets}) > 30
    for S, lab, (basis, frac) in zip(sets, labels, fields):
        single = PeriodicSet.from_fractional(basis, frac)
        ref_basis, ref_motif = legacy.reduce_motif(basis, frac @ basis)
        assert S.labels is lab
        assert np.array_equal(S.basis, ref_basis) and np.array_equal(single.basis, ref_basis)
        assert np.array_equal(S.motif, ref_motif) and np.array_equal(single.motif, ref_motif)
        assert S.cell_volume() == single.cell_volume() == legacy.cell_volume(S)
        assert periodic.ppc(S) == legacy.ppc(S)
        if S.rank < 3:  # points off the lattice span keep their offset
            motif = frac @ basis + rng.normal(scale=0.5, size=(len(frac), 3))
            off = PeriodicSet(basis, motif)
            assert np.array_equal(off.motif, legacy.reduce_motif(basis, motif)[1])
            assert np.array_equal(neighbours(off, 9), legacy.neighbours(off, 9))


def test_neighbours_and_deviations_equal_reference(rng):
    fields = _random_fields(rng, 45, sizes=range(1, 25))
    sets, _ = _stack(fields)
    for S, k in zip(sets, [1, 7, 30] * len(sets)):
        assert np.array_equal(neighbours(S, k), legacy.neighbours(S, k))
        _assert_same_devs(deviations(S, k), legacy.deviations(S, k))
        P, Q = periodic.pdd_periodic(S, k, 1e-3), legacy.pdd_periodic(S, k, 1e-3)
        assert np.array_equal(P.weights, Q.weights) and np.array_equal(P.rows, Q.rows)


def test_symmetric_sets_equal_reference():
    # equal PDD rows: body-centred and face-centred cubic, a hexagonal sheet
    cases = [
        (np.eye(3), [[0, 0, 0], [0.5, 0.5, 0.5]]),
        (2 * np.eye(3), [[0, 0, 0], [0.5, 0.5, 0], [0.5, 0, 0.5], [0, 0.5, 0.5]]),
        (periodic.cell_to_basis(1, 1, 3, 90, 90, 120), [[0, 0, 0], [1 / 3, 2 / 3, 0.5]]),
    ]
    for basis, frac in cases:
        S = PeriodicSet.from_fractional(basis, frac)
        for k in (1, 12, 50):
            _assert_same_devs(deviations(S, k), legacy.deviations(S, k))


def _long_cell(rng, l, aspect):
    """A rank-l basis in R^3 whose longest vector is up to ``aspect`` times
    its shortest, sheared and rotated."""
    lengths = np.exp(rng.uniform(0, np.log(aspect), size=l))
    basis = np.diag(lengths / lengths.min()) @ (np.eye(l, 3) + rng.normal(scale=0.2, size=(l, 3)))
    return basis @ np.linalg.qr(rng.normal(size=(3, 3)))[0]


def test_neighbours_equal_reference_at_k100_on_long_cells(rng):
    # rank 1-3 cells of aspect ratio up to 50, motifs of 1-12 points, some
    # off the lattice span
    for l in (1, 2, 3):
        for aspect in (1.5, 8, 50):
            for _ in range(4):
                basis = _long_cell(rng, l, aspect)
                frac = rng.uniform(0, 1, size=(int(rng.integers(1, 13)), l))
                motif = frac @ basis + rng.normal(scale=0.3, size=(len(frac), 3)) * (l < 3)
                S = PeriodicSet(basis, motif)
                assert np.array_equal(neighbours(S, 100), legacy.neighbours(S, 100))


def test_no_ball_beyond_the_packing_start(rng, monkeypatch):
    # a search that fits the budget from r0 = ppc (k/m + 1)^(1/l) + diam
    # fits it from the asymptotic start: the budget is set to the largest
    # array of the search from r0.  A short dimer starts beyond r0 at k = 100.
    dimer = PeriodicSet(np.eye(3), [[0.0, 0.0, 0.0], [0.05, 0.0, 0.0]])
    sets = [dimer, *_stack(_random_fields(rng, 12, sizes=range(1, 9)))[0]]
    for S in sets:
        for k in (1, 30, 100):
            cells = []
            monkeypatch.setattr(legacy, "_check_budget", lambda n, *args: cells.append(n))
            want = legacy.neighbours(S, k)
            monkeypatch.setattr(periodic, "NEIGHBOUR_CELL_BUDGET", int(max(cells)))
            assert np.array_equal(neighbours(S, k), want)
            monkeypatch.undo()


def test_dataset_path_equals_deviations(rng):
    # motif sizes 1-24 in one dataset, several sets per size
    fields = _random_fields(rng, 60, sizes=[*range(1, 25), 2, 2, 3, 5, 8], ranks=[3])
    fields.append((np.eye(3), np.array([[0, 0, 0], [0.5, 0.5, 0.5]])))  # equal PDD rows
    sets, _ = _stack(fields)
    for k in (1, 12, 100):
        ada, _, pda = periodic._ada_pda(sets, k)
        assert ada.shape == (len(sets), k)
        for i, S in enumerate(sets):
            want = deviations(S, k)
            assert np.array_equal(ada[i], want["ada"])
            assert pda(i) is pda(i)
            assert np.array_equal(pda(i).weights, want["pda"].weights)
            assert np.array_equal(pda(i).rows, want["pda"].rows)


def test_dedup_and_lnd_equal_reference(rng, monkeypatch):
    fields = _random_fields(rng, 30, sizes=[1, 2, 3, 4, 6, 9], ranks=[3])
    fields += [(basis, frac + rng.normal(scale=2e-3, size=frac.shape)) for basis, frac in fields[:8]]
    sets, _ = _stack(fields)
    built = []

    def counted(w, rows):
        built.append(1)
        return WeightedRows(w, rows)

    monkeypatch.setattr(periodic, "WeightedRows", counted)
    for k in (20, 100):
        built.clear()
        got = dedup(sets, k=k, ada_threshold=0.05, confirm_threshold=0.05)
        assert got and got == legacy.dedup(sets, k=k, ada_threshold=0.05, confirm_threshold=0.05)
        # a PDA is built once for each set of a pair that passes the filter
        ada = np.array([legacy.deviations(S, k)["ada"] for S in sets])
        passing = np.nonzero(np.triu(np.abs(ada[:, None] - ada).max(axis=2) <= 0.05, 1))
        assert len(built) == len(set(np.concatenate(passing).tolist())) < len(sets)
        for i, S in enumerate(sets[:10]):
            rest = sets[:i] + sets[i + 1 :]
            assert lnd(S, rest, k) == legacy.lnd(S, rest, k)


@pytest.mark.parametrize("k", [0, 1.5, 2**24])
def test_dedup_and_lnd_check_k_before_any_search(k, monkeypatch):
    sets, _ = _stack([(np.eye(3), np.zeros((1, 3))), (2 * np.eye(3), np.zeros((1, 3)))])
    with pytest.raises(ValueError) as want:
        legacy.deviations(sets[0], k)

    def no_search(*args):
        raise AssertionError("neighbour search started before k was checked")

    monkeypatch.setattr(periodic, "neighbours", no_search)
    monkeypatch.setattr(periodic.np, "empty", no_search)
    for call in (lambda: dedup(sets, k=k), lambda: lnd(sets[0], sets[1:], k)):
        with pytest.raises(ValueError) as got:
            call()
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "fault, message",
    [
        (lambda frac: np.vstack([frac, frac[:1] + [1, 0, 0]]), "duplicate motif points"),
        (lambda frac: np.where(frac == frac[0, 0], np.nan, frac), "non-finite motif"),
    ],
)
def test_failed_group_names_its_first_faulty_set(rng, fault, message):
    fields = _random_fields(rng, 6, sizes=[3], ranks=[3])
    fields += [(basis, fault(frac)) for basis, frac in fields[2:4]]
    fields += _random_fields(rng, 3, sizes=[3, 4], ranks=[3])
    bases, fracs = zip(*fields)
    names = [f"f{i}.cif" for i in range(len(fields))]
    with pytest.raises(ValueError, match=f"^f6.cif: {message}"):
        _sets(bases, fracs, [None] * len(fields), names, fractional=True)
    sets = _sets(bases[:6], fracs[:6], [None] * 6, names[:6], fractional=True)
    assert [len(S.motif) for S in sets] == [3] * 6


def test_cell_volume_overflow_names_its_cell():
    bases = [np.eye(3), 1e120 * np.eye(3)]
    with pytest.raises(ValueError, match="^b: cell volume overflows for cell lengths 1e\\+120"):
        _sets(bases, [np.zeros((1, 3))] * 2, [None, None], ["a", "b"], fractional=True)


# ---------------------------------------------------------------- collapse_rows


def _assert_same_collapse(rows, weights, tol=0.0):
    got, want = collapse_rows(rows, weights, tol), legacy.collapse_rows(rows, weights, tol)
    assert np.array_equal(got.rows, want.rows, equal_nan=True)
    assert np.array_equal(got.weights, want.weights)
    return got


def test_collapse_chain_compares_with_last_kept_row():
    tol = 1e-3
    rows = np.array([[1.2 * tol], [0.0], [0.6 * tol]])
    got = _assert_same_collapse(rows, np.full(3, 1 / 3), tol)
    assert got.rows[:, 0].tolist() == [0.0, 1.2 * tol]
    assert got.weights.tolist() == [2 / 3, 1 / 3]
    # each row is within tol of the row before it, not of the first kept
    rows = np.arange(10.0)[:, None] * 0.4 * tol + np.zeros((1, 4))
    _assert_same_collapse(rows[::-1], np.full(10, 0.1), tol)


def test_collapse_nan_rows_never_merge():
    rows = np.array([[1.0, np.nan], [1.0, np.nan], [np.nan, 2.0], [0.5, 1.0], [np.nan, 2.0]])
    got = _assert_same_collapse(rows, np.full(5, 0.2))
    assert len(got) == 5
    _assert_same_collapse(rows, np.full(5, 0.2), tol=1.0)


def test_collapse_first_column_ties(rng):
    # rows tie on their leading 1, 2, 5 or all columns
    base = np.sort(rng.integers(0, 4, size=(30, 12)).astype(float), axis=1)
    for lead in (1, 2, 5, 12):
        rows = base.copy()
        rows[:, :lead] = base[0, :lead]
        _assert_same_collapse(rows, np.full(30, 1 / 30))
        _assert_same_collapse(rows[:, :lead], np.full(30, 1 / 30))
    rows[3, 0] = -0.0
    _assert_same_collapse(rows, np.full(30, 1 / 30))


def test_collapse_weight_sums_equal_the_row_loop(rng):
    for _ in range(60):
        distinct = np.sort(rng.uniform(0, 3, size=(int(rng.integers(1, 12)), 6)), axis=1)
        runs = rng.integers(1, 41, size=len(distinct))
        rows = np.repeat(distinct, runs, axis=0)
        if rng.random() < 0.5:
            weights = np.full(len(rows), 1.0 / len(rows))
        else:
            weights = rng.uniform(0.5, 2.0, size=len(rows))
            weights /= weights.sum()
        perm = rng.permutation(len(rows))
        got = _assert_same_collapse(rows[perm], weights[perm])
        assert len(got) == len(distinct)
