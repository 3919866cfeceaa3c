"""Ordered and 1-periodic sequence invariants: CDM/CDS, MCD/MCS, metrics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import random_rotation
from geoinv.numcore import INF
from geoinv.simplexwise import simplex_sign, strength
from geoinv.seq1p import (
    OnePeriodicSequence,
    cdm,
    cds,
    mcd,
    mcs,
    seq_metric,
    sign_row,
    strengths_row,
    time_shift,
)

S2, S5, S10 = math.sqrt(2), math.sqrt(5), math.sqrt(10)

T1 = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], float)
T3 = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float)
T4 = np.array([[0, 0], [1, 0], [1, 1], [2, 1]], float)
T5 = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [1, 2], [1, 3]], float)
T6 = np.array([[2, 0], [1, 0], [1, 1], [0, 1], [1, 2], [1, 3]], float)


def test_cdm_goldens():
    assert cdm(T1) == pytest.approx(
        np.array([[1, S2, 1, S2], [1, 1, 1, 1], [S2, 1, S2, 1]]), abs=1e-12
    )
    assert cdm(T3) == pytest.approx(
        np.array([[1, 1, 1, 1], [S2, S2, S2, S2], [1, 1, 1, 1]]), abs=1e-12
    )
    assert cdm(T4) == pytest.approx(
        np.array([[1, 1, 1, S5], [S2, S2, S2, S2], [S5, 1, 1, 1]]), abs=1e-12
    )


def test_cdm_t5_t6_differ_in_two_cells():
    want5 = np.array(
        [
            [1, 1, 1, S2, 1, S10],
            [S2, S2, 1, S5, S5, 3],
            [1, 2, 2, 1, 2, 2],
            [S5, 3, S2, S2, 1, S5],
            [S10, 1, 1, 1, S2, 1],
        ]
    )
    assert cdm(T5) == pytest.approx(want5, abs=1e-12)
    want6 = want5.copy()
    want6[2, 0] = want6[2, 3] = S5
    assert cdm(T6) == pytest.approx(want6, abs=1e-12)


def test_sign_row_t1():
    # the printed alternating row contains a transposed difference vector;
    # the hand-checked cross products for the stated points give this row
    assert list(sign_row(T1)) == [-1, 1, 1, -1]


def test_strengths_row_t1():
    sigma = 1 / (S2 * (1 + S2) ** 3)
    assert strengths_row(T1) == pytest.approx([sigma] * 4, abs=1e-12)


def test_cds_shape():
    assert cds(T1).shape == (4, 4)


def test_mcd_golden_formulas():
    for q in (1, 2, INF):
        p = {1: 1.0, 2: 2.0, INF: math.inf}[q]
        if p == math.inf:
            e13, e34 = S2 - 1, S5 - 1
            e14 = max(S2 - 1, S5 - S2)
            e56 = S5 - 1
        else:
            e13 = (2 / 3) ** (1 / p) * (S2 - 1)
            e34 = (1 / 6) ** (1 / p) * (S5 - 1)
            e14 = (0.5 * (S2 - 1) ** p + (S5 - S2) ** p / 6) ** (1 / p)
            e56 = (1 / 15) ** (1 / p) * (S5 - 1)
        assert mcd(T1, T3, q) == pytest.approx(e13, abs=1e-12)
        assert mcd(T3, T4, q) == pytest.approx(e34, abs=1e-12)
        assert mcd(T1, T4, q) == pytest.approx(e14, abs=1e-12)
        assert mcd(T5, T6, q) == pytest.approx(e56, abs=1e-12)


def test_mcs_dominates_mcd():
    assert mcs(T1, T3) >= mcd(T1, T3) - 1e-12
    assert mcs(T1, T1) == 0.0


def test_mcd_isometry_invariance(rng):
    Rm = random_rotation(rng, 2)
    moved = T4 @ Rm.T + rng.normal(size=2)
    assert mcd(T4, moved) < 1e-9
    assert mcs(T4, moved) < 1e-9


def test_time_shift_goldens():
    Q = OnePeriodicSequence(6.0, np.array([[0.0], [1.0], [3.0]]))
    assert time_shift(Q) == pytest.approx([1, 2, 3])
    S = OnePeriodicSequence(3.0, np.array([[0.0], [2.0]]))
    assert time_shift(S) == pytest.approx([2, 1])


def test_cim_golden():
    S = OnePeriodicSequence(3.0, np.array([[0.0], [1.0]]))
    Q = OnePeriodicSequence(6.0, np.array([[0.0], [1.0], [3.0]]))
    assert seq_metric(S, Q, INF) == pytest.approx(2.0, abs=1e-9)


def test_re_encoding_invariance(rng):
    # representing the same sequence with k motif copies gives distance 0
    for _ in range(20):
        m = int(rng.integers(2, 5))
        times = np.sort(rng.uniform(0, 1, size=m))
        while np.diff(np.concatenate([times, [times[0] + 1]])).min() < 0.05:
            times = np.sort(rng.uniform(0, 1, size=m))
        vals = rng.normal(size=(m, 1))
        S = OnePeriodicSequence(1.0, np.column_stack([times, vals]))
        k = int(rng.integers(2, 4))
        motif = np.vstack(
            [np.column_stack([times + c, vals]) for c in range(k)]
        )
        Sk = OnePeriodicSequence(float(k), motif)
        assert seq_metric(S, Sk, INF) < 1e-9
        assert seq_metric(S, Sk, 2) < 1e-9


def test_shift_invariance(rng):
    times = np.array([0.0, 0.3, 0.7])
    vals = rng.normal(size=(3, 2))
    S = OnePeriodicSequence(1.0, np.column_stack([times, vals]))
    shifted = np.column_stack([(times + 0.45) % 1.0, vals])
    Q = OnePeriodicSequence(1.0, shifted)
    assert seq_metric(S, Q, INF) < 1e-9


def test_seq_metric_lipschitz(rng):
    for _ in range(20):
        m = int(rng.integers(2, 5))
        times = np.sort(rng.uniform(0, 1, size=m))
        while np.diff(np.concatenate([times, [times[0] + 1]])).min() < 0.1:
            times = np.sort(rng.uniform(0, 1, size=m))
        vals = rng.normal(size=(m, 1))
        S = OnePeriodicSequence(1.0, np.column_stack([times, vals]))
        eps = 0.01
        pert = np.column_stack(
            [times + rng.uniform(-eps, eps, m), vals + rng.uniform(-eps, eps, (m, 1))]
        )
        Q = OnePeriodicSequence(1.0, pert)
        assert seq_metric(S, Q, INF) <= 2 * eps + 1e-9


def test_dihedral_reversal(rng):
    # reversing the traversal direction is detected by the dihedral group
    times = np.array([0.0, 0.2, 0.5])
    vals = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    S = OnePeriodicSequence(1.0, np.column_stack([times, vals]))
    Q = OnePeriodicSequence(1.0, np.column_stack([(-times) % 1.0, vals]))
    d_cyc = seq_metric(S, Q, INF, group="cyclic")
    d_dih = seq_metric(S, Q, INF, group="dihedral")
    assert d_dih < 1e-9
    assert d_dih <= d_cyc + 1e-12


def test_cdm_matches_roll_definition(rng):
    for m in (2, 3, 7):
        for n in (1, 2, 3):
            pts = rng.normal(size=(m, n))
            want = [np.linalg.norm(pts - np.roll(pts, -i, axis=0), axis=1) for i in range(1, m)]
            assert np.array_equal(cdm(pts), np.array(want))


def test_rows_match_per_window_calls(rng):
    for m in (2, 3, 8):
        for n in (2, 3):
            pts = rng.normal(size=(m, n))
            if m % 2:  # integer coordinates: ties and degenerate windows
                pts = np.rint(pts)
            windows = [pts[[(i + j) % m for j in range(n + 1)]] for i in range(m)]
            assert np.array_equal(sign_row(pts), [simplex_sign(w) for w in windows])
            assert np.array_equal(strengths_row(pts), [strength(w) for w in windows])


def test_non_finite_coordinates_rejected():
    bad = T1.copy()
    bad[2, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        cdm(bad)
    with pytest.raises(ValueError, match="non-finite"):
        sign_row(bad)
    with pytest.raises(ValueError, match="non-finite"):
        OnePeriodicSequence(1.0, np.column_stack([[0.0, 0.5], [1.0, np.inf]]))
    with pytest.raises(ValueError, match="non-finite"):
        OnePeriodicSequence(1.0, np.array([[0.0], [np.nan]]))
