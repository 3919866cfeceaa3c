"""Ordered and 1-periodic sequence invariants: CDM/CDS, MCD/MCS, metrics."""

from __future__ import annotations

import math

import numpy as np
import pytest

import geoinv.seq1p as seq1p
import legacy_kernels
from conftest import random_rotation
from geoinv.numcore import INF, norm_exponent
from geoinv.simplexwise import LAMBDA, simplex_sign, strength
from geoinv.seq1p import (
    OnePeriodicSequence,
    _normalized_lq,
    _signed_strengths,
    _windows,
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


def test_one_point_motifs_have_no_value_term():
    # a one-point motif has an empty CDM: only the time shift can differ
    S = OnePeriodicSequence(1.0, [[0.0, 1.5]])
    Q = OnePeriodicSequence(1.0, [[0.3, -7.0]])
    for equivalence in ("isometry", "rigid"):
        assert seq_metric(S, S, equivalence=equivalence) == 0.0
        assert seq_metric(S, Q, equivalence=equivalence) == 0.0
    # one point against two: the extension repeats it, and the value term
    # compares the repeated point's zero distance with the two-point CDM
    T = OnePeriodicSequence(1.0, [[0.0, 1.5], [0.5, 2.5]])
    assert seq_metric(S, T) == pytest.approx(1.0)


# Verbatim copy of the earlier seq_metric and its helpers (time_shift then
# closed the last gap as t[0] + l - t[-1]), which extended both motifs to the
# lcm size and re-encoded Q for every order of the group: the oracle for the
# rotation search.


def _extend(S, copies):
    """Concatenate ``copies`` shifted copies of the motif (period multiplies)."""
    motif = np.tile(S.motif, (copies, 1))
    motif[:, 0] += np.repeat(np.arange(copies) * S.period, S.m)
    return OnePeriodicSequence(S.period * copies, motif)


def _time_shift(S):
    """Gaps (d_1, ..., d_m) between successive time projections; sums to l."""
    t = S.motif[:, 0]
    return np.concatenate([np.diff(t), [S.motif[0, 0] + S.period - t[-1]]])


def _candidate_orders(m, group):
    """Motif orders with traversal direction for the cyclic/dihedral group."""
    base = list(range(m))
    orders = [(base[j:] + base[:j], 1) for j in range(m)]
    if group == "dihedral":
        rev = base[::-1]
        orders += [(rev[j:] + rev[:j], -1) for j in range(m)]
    elif group != "cyclic":
        raise ValueError("group must be 'cyclic' or 'dihedral'")
    return orders


def _ts_of_order(times, order, period, direction=1):
    """Time-shift vector of the re-ordered motif.

    Gaps are measured along the traversal direction, so a reversed order
    yields the reversed gap vector of the forward sequence.
    """
    t = times[order]
    if len(t) == 1:
        return np.array([period])
    return direction * (np.roll(t, -1) - t) % period


def _ref_seq_metric(S, Q, q=INF, group="cyclic", equivalence="isometry"):
    qn = norm_exponent(q)
    m = math.lcm(S.m, Q.m)
    S_ext = _extend(S, m // S.m)
    Q_ext = _extend(Q, m // Q.m)

    ts_s = _time_shift(S_ext)
    vals_s = S_ext.motif[:, 1:]
    # a one-point motif has an empty CDM, so its value term is 0
    use_values = S.value_dim >= 1 and m > 1
    if use_values:
        cdm_s = cdm(vals_s)
        if equivalence == "rigid":
            ss_s = _signed_strengths(vals_s)
            lam = LAMBDA[S.value_dim]

    times_q = Q_ext.motif[:, 0]
    vals_q = Q_ext.motif[:, 1:]
    best = math.inf
    for order, direction in _candidate_orders(m, group):
        d = _normalized_lq(ts_s - _ts_of_order(times_q, order, Q_ext.period, direction), qn)
        if use_values and d < best:
            vq = vals_q[order]
            d = max(d, _normalized_lq(cdm_s - cdm(vq), qn))
            if equivalence == "rigid" and d < best:
                gap = np.abs(ss_s - _signed_strengths(vq)).max()
                d = max(d, 2.0 / lam * gap)
        best = min(best, d)
    return best


def _random_sequence(rng, u, value_dim):
    period = float(rng.uniform(0.5, 2.0))
    times = np.sort(rng.choice(4 * u, size=u, replace=False) + rng.uniform(0, 0.5, u))
    return OnePeriodicSequence(period, np.column_stack([times * period / (4 * u),
                                                        rng.normal(size=(u, value_dim))]))


def test_seq_metric_matches_reference(rng):
    sizes = [(1, 1), (1, 3), (2, 2), (3, 4), (4, 6), (5, 6), (6, 10), (12, 5), (15, 4)]
    for a, b in sizes:
        for value_dim in (0, 1, 2, 3):
            S, Q = _random_sequence(rng, a, value_dim), _random_sequence(rng, b, value_dim)
            # near copies of S, forward and reversed in time, so the value
            # terms of each direction are reached
            T = OnePeriodicSequence(S.period, S.motif + rng.uniform(-1e-3, 1e-3, S.motif.shape))
            R = OnePeriodicSequence(S.period, T.motif * ([-1] + [1] * value_dim))
            pairs = [(S, Q), (Q, S), (S, T), (S, R)]
            equivalences = ("isometry",)
            if value_dim in (2, 3):
                # a mirror image: only the signed strengths tell it apart
                flip = [1, -1] + [1] * (value_dim - 1)
                pairs.append((S, OnePeriodicSequence(S.period, T.motif * flip)))
                equivalences = ("isometry", "rigid")
            for X, Y in pairs:
                for group in ("cyclic", "dihedral"):
                    for equivalence in equivalences:
                        for q in (1, 2, INF):
                            want = _ref_seq_metric(X, Y, q, group, equivalence)
                            got = seq_metric(X, Y, q, group, equivalence)
                            assert abs(got - want) <= 1e-12
                            assert seq_metric(X, X, q, group, equivalence) == 0.0


def _legacy_signed_strengths(points):
    """The signed strengths of a motif by the legacy kernels, each with its
    own determinant of every window."""
    windows = _windows(points)
    if windows.shape[-1] not in (2, 3):
        raise ValueError("sign rows are defined for n in {2, 3}")
    return legacy_kernels.simplex_sign(windows) * legacy_kernels.strength_det(windows)


def test_rigid_seq_metric_equals_the_legacy_kernels(rng, monkeypatch):
    # seeded pairs with ties (integer values: collinear and repeated
    # windows), near copies and mirror images, cyclic and dihedral
    pairs = []
    for value_dim in (2, 3):
        for a, b in ((3, 3), (4, 6), (5, 5), (6, 4), (8, 12)):
            S, Q = _random_sequence(rng, a, value_dim), _random_sequence(rng, b, value_dim)
            tied = OnePeriodicSequence(Q.period, np.column_stack(
                [Q.motif[:, 0], rng.integers(-1, 2, size=(b, value_dim))]))
            flip = [1, -1] + [1] * (value_dim - 1)
            near = S.motif + rng.uniform(-1e-3, 1e-3, S.motif.shape)
            pairs += [(S, Q), (Q, S), (S, tied), (tied, tied),
                      (S, OnePeriodicSequence(S.period, near * flip))]
    calls = [(X, Y, q, group) for X, Y in pairs for group in ("cyclic", "dihedral")
             for q in (1, 2, INF)]
    new = [seq_metric(X, Y, q, group, "rigid") for X, Y, q, group in calls]
    rows = [_signed_strengths(X.motif[:, 1:]) for X, _ in pairs]
    monkeypatch.setattr(seq1p, "_signed_strengths", _legacy_signed_strengths)
    assert new == [seq_metric(X, Y, q, group, "rigid") for X, Y, q, group in calls]
    for row, (X, _) in zip(rows, pairs):
        assert np.array_equal(row, _legacy_signed_strengths(X.motif[:, 1:]))
    assert any((row == 0).any() for row in rows) and len(set(new)) > len(pairs)
    for bad in ([[0.0], [1.0], [3.0]], np.zeros((5, 4))):
        with pytest.raises(ValueError, match="n in \\{2, 3\\}"):
            _signed_strengths(bad)


def test_seq_metric_rejects_unknown_group_and_equivalence():
    S = OnePeriodicSequence(1.0, [[0.0, 1.0], [0.5, 2.0]])
    with pytest.raises(ValueError, match="group"):
        seq_metric(S, S, group="cycle")
    with pytest.raises(ValueError, match="equivalence"):
        seq_metric(S, S, equivalence="isometric")


def test_seq_metric_rejects_different_value_dimensions():
    # S's value dimension alone decided: (S, Q) gave 0.0 and (Q, S) raised
    # from the CDM of a (3, 0) array
    S = OnePeriodicSequence(1.0, [[0.0], [0.3], [0.6]])
    Q = OnePeriodicSequence(1.0, [[0.0, 0.0], [0.3, 5.0], [0.6, 1.0]])
    for X, Y, dims in ((S, Q, "0 and 1"), (Q, S, "1 and 0")):
        for equivalence in ("isometry", "rigid"):
            with pytest.raises(ValueError, match=f"value dimensions {dims} differ"):
                seq_metric(X, Y, equivalence=equivalence)


def test_seq_metric_search_budget(monkeypatch):
    # motifs of 300 and 299 points: lcm 89 700, an 89 700^2 CDM per direction
    S = OnePeriodicSequence(1.0, np.column_stack([np.arange(300) / 300, np.zeros(300)]))
    Q = OnePeriodicSequence(1.0, np.column_stack([np.arange(299) / 299, np.zeros(299)]))
    with pytest.raises(ValueError, match="cell budget"):
        seq_metric(S, Q)
    # the work budget counts directions x the shifts of the smaller motif x
    # m^2 cells, m without values; the cell budget counts the m^2 cells of
    # one array.  Both argument orders pass or raise alike.
    two = OnePeriodicSequence(1.0, [[0.0, 1.0], [0.5, 2.0]])
    three = OnePeriodicSequence(1.0, [[0.0, 1.0], [0.5, 2.0], [0.7, 0.0]])
    pairs = ((two, three), (three, two))
    monkeypatch.setattr(seq1p, "SEQ_WORK_BUDGET", 2 * 2 * 6**2)
    monkeypatch.setattr(seq1p, "SEQ_CELL_BUDGET", 6**2)
    for pair in pairs:
        assert seq_metric(*pair, group="dihedral") > 0.0
    monkeypatch.setattr(seq1p, "SEQ_WORK_BUDGET", 2 * 2 * 6**2 - 1)
    for pair in pairs:
        with pytest.raises(ValueError, match="work budget"):
            seq_metric(*pair, group="dihedral")
    monkeypatch.setattr(seq1p, "SEQ_WORK_BUDGET", 2 * 2 * 6**2)
    monkeypatch.setattr(seq1p, "SEQ_CELL_BUDGET", 6**2 - 1)
    for pair in pairs:
        with pytest.raises(ValueError, match="cell budget"):
            seq_metric(*pair, group="dihedral")
    monkeypatch.setattr(seq1p, "SEQ_WORK_BUDGET", 2 * 3 * 6)
    monkeypatch.setattr(seq1p, "SEQ_CELL_BUDGET", 6)
    times_only = [OnePeriodicSequence(1.0, X.motif[:, :1]) for X in (two, three)]
    assert seq_metric(*times_only, group="dihedral") > 0.0


def test_seq_metric_coprime_thirty_point_motifs(rng):
    # 30 and 31 points: one 930^2 CDM per direction, 2.7e7 search cells per
    # direction, under a second; the search fits both budgets
    def motif(m):
        t = np.sort(rng.uniform(0, 1, size=m))
        return OnePeriodicSequence(1.0, np.column_stack([t - t[0], rng.normal(size=(m, 2))]))

    S, Q = motif(30), motif(31)
    for X, Y in ((S, Q), (Q, S)):
        d = seq_metric(X, Y)
        assert math.isfinite(d) and d > 0.0


def test_bad_motifs_and_sequences_are_rejected(rng):
    # an empty or (1, m, 2) motif constructed and seq_metric ended in
    # IndexError in time_shift; mcs(X[None], Y[None]) ended in KeyError
    for motif in (np.zeros((0, 2)), T1[None]):
        with pytest.raises(ValueError, match="non-empty"):
            OnePeriodicSequence(1.0, motif)
    X, Y = rng.random((5, 3)), rng.random((5, 3))
    with pytest.raises(ValueError, match="2-D point arrays"):
        mcs(X[None], Y[None])
    # sequences in R^2 and R^3 have CDMs of one shape and were compared
    for metric in (mcd, mcs):
        with pytest.raises(ValueError, match="shape mismatch"):
            metric(X[:, :2], Y)


def test_cli_seq1_metric_on_an_empty_file_exits_2(tmp_path):
    # a subprocess, as numpy warns "input contained no data" on the empty file
    import os
    import subprocess
    import sys
    from pathlib import Path

    (tmp_path / "a.txt").write_text("0 0 0\n0.2 1 0.5\n0.45 0.5 -1\n")
    (tmp_path / "empty.txt").write_text("")
    paths = [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    code = "import sys; from geoinv.cli import main; sys.exit(main(sys.argv[1:]))"
    args = ["seq1", "metric", "--period", "1", "a.txt", "empty.txt"]
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, timeout=60, env=env, cwd=tmp_path)
    assert done.returncode == 2
    assert done.stdout == "" and "Traceback" not in done.stderr
    assert "geoinv: motif coordinates requires non-empty sets" in done.stderr
