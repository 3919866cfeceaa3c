"""Acceptance gate: the sixteen criteria the artifact must satisfy.

Golden values recomputed by hand or via independent brute-force oracles are
frozen here; divergences from published figures are documented in the
project decision ledger.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import bottleneck_oracle, emd_oracle, random_isometry, random_rotation
from geoinv.backbone import (
    Backbone,
    brain,
    bri,
    bri_dist,
    lipschitz_lambda,
    mirror_backbone,
    mirror_bri,
    reconstruct,
    subchain,
)
from geoinv.clouds import PointCloud, WeightedRows, pdd, pdd_dist, spd, srd
from geoinv.density1d import PeriodicSequence1D, fingerprint_dist, fingerprint_equal, psi, rho
from geoinv.lattice2d import (
    ProjectedInvariant2D,
    chiral,
    inverse_design,
    pm,
    projected_invariant,
    reduce_basis,
    rm,
    root_invariant,
    slm,
)
from geoinv.numcore import INF, bottleneck, emd
from geoinv.periodic import PeriodicSet, amd, dedup, deviations, pda_dist, pdd_periodic, ppc
from geoinv.seq1p import OnePeriodicSequence, cdm, mcd, mcs, seq_metric, sign_row, strengths_row
from geoinv.simplexwise import LAMBDA, scd, scd_dist, sdd, sdd_dist, strength

S2, S5, S10 = math.sqrt(2), math.sqrt(5), math.sqrt(10)

TRAPEZIUM = PointCloud(np.array([[-2, 1], [2, 1], [-4, -1], [4, -1]], float))
KITE = PointCloud(np.array([[5, 0], [-3, 0], [-1, 2], [-1, -2]], float))


def test_ac01_trapezium_kite_separation():
    want_spd = [2 * S2, 2 * S2, 4.0, 2 * S10, 2 * S10, 8.0]
    assert spd(TRAPEZIUM) == pytest.approx(want_spd, abs=1e-9)
    assert spd(KITE) == pytest.approx(want_spd, abs=1e-9)
    assert srd(TRAPEZIUM) == pytest.approx(
        [math.sqrt(17), math.sqrt(17), S5, S5], abs=1e-9
    )
    assert srd(KITE) == pytest.approx([5.0, 3.0, S5, S5], abs=1e-9)
    P, Q = pdd(TRAPEZIUM, 3), pdd(KITE, 3)
    assert P.weights == pytest.approx([0.5, 0.5], abs=1e-9)
    assert P.rows == pytest.approx(
        np.array([[2 * S2, 4, 2 * S10], [2 * S2, 2 * S10, 8]]), abs=1e-9
    )
    assert Q.weights == pytest.approx([0.25, 0.5, 0.25], abs=1e-9)
    assert Q.rows == pytest.approx(
        np.array(
            [[2 * S2, 2 * S2, 8], [2 * S2, 4, 2 * S10], [2 * S10, 2 * S10, 8]]
        ),
        abs=1e-9,
    )
    assert pdd_dist(P, Q) > 1e-6


def test_ac02_pdd_complete_small_clouds():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 4))
        pts = rng.normal(size=(m, n)) * rng.uniform(0.5, 3)
        Rm, t = random_isometry(rng, n)
        d = pdd_dist(
            pdd(PointCloud(pts), m - 1), pdd(PointCloud(pts @ Rm.T + t), m - 1)
        )
        assert d < 1e-9


def test_ac03_pdd_lipschitz():
    rng = np.random.default_rng(3)
    for _ in range(200):
        m = int(rng.integers(3, 7))
        n = int(rng.integers(2, 4))
        pts = rng.uniform(0, 10, size=(m, n))
        diffs = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        min_d = diffs[diffs > 0].min()
        eps = rng.uniform(0.05, 0.49) * min_d
        noise = rng.normal(size=pts.shape)
        noise *= eps / np.linalg.norm(noise, axis=1, keepdims=True)
        k = m - 1
        P = pdd(PointCloud(pts), k)
        Q = pdd(PointCloud(pts + noise), k)
        for q, kq in ((1, k), (2, math.sqrt(k)), (INF, 1.0)):
            assert pdd_dist(P, Q, q) <= 2 * eps * kq + 1e-9


def _pm_pair(base, last):
    lo = PointCloud(np.array(base + [[last[0], last[1], -last[2]]], float))
    hi = PointCloud(np.array(base + [list(last)], float))
    return lo, hi


def test_ac04_sdd_separations():
    pairs = [
        _pm_pair([[-2, 0, -2], [2, 0, 2], [-1, -1, 0], [1, 1, 0]], (0, 1, 1)),
        _pm_pair(
            [[-2, 0, -2], [2, 0, 2], [-1, -1, 0], [1, 1, 0], [-1, 2, 0], [1, 2, 0]],
            (0, 0, 1),
        ),
        _pm_pair(
            [[-2, 0, -2], [2, 0, 2], [-1, 2, 0], [1, -2, 0], [0, 3, 0]], (0, 0, 1)
        ),
    ]
    for lo, hi in pairs:
        assert np.abs(spd(lo) - spd(hi)).max() < 1e-9
        assert sdd_dist(sdd(lo, 2), sdd(hi, 2)) > 1e-6


def test_ac05_strength_golden_and_lipschitz():
    tri = np.array([[0, 0], [1, 0], [0, 1]], float)
    assert strength(tri) == pytest.approx(1 / (S2 * (1 + S2) ** 3), abs=1e-12)
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(2, 4))
        pts = rng.uniform(0, 2, size=(n + 1, n))
        eps = rng.uniform(1e-4, 0.05)
        noise = rng.normal(size=pts.shape)
        noise *= eps / np.linalg.norm(noise, axis=1, keepdims=True)
        assert abs(strength(pts) - strength(pts + noise)) <= 2 * eps * LAMBDA[n] + 1e-12


def _design(x, y, size, sign=1):
    return root_invariant(inverse_design(x, y, size, sign))


def test_ac06_lattice_tables():
    # the four achiral/chiral root invariants realised through inverse design
    ris = [
        _design(0.0, 0.0, 2.0),
        _design(0.0, 1.0, 3.0),
        _design(0.5, 0.5, 6.0),
        _design(0.25, 0.25, 12.0),
    ]
    for ri, trip in zip(ris, [(0, 1, 1), (1, 1, 1), (1, 1, 4), (1, 4, 7)]):
        assert ri.triple() == pytest.approx(list(map(float, trip)), abs=1e-9)
    rm_inf = [[0, 1, 3, 6], [1, 0, 3, 6], [3, 3, 0, 3], [6, 6, 3, 0]]
    pm_inf = [
        [0, 1, 0.5, 0.25],
        [1, 0, 0.5, 0.75],
        [0.5, 0.5, 0, 0.25],
        [0.25, 0.75, 0.25, 0],
    ]
    pis = [projected_invariant(r) for r in ris]
    for i in range(4):
        for j in range(4):
            assert rm(ris[i], ris[j], INF) == pytest.approx(rm_inf[i][j], abs=1e-9)
            assert pm(pis[i], pis[j], INF) == pytest.approx(pm_inf[i][j], abs=1e-9)

    # chiral distances for the (1,4,7) lattice: all 12 published values hold;
    # the second lattice's column is checked against the closed forms with
    # two recomputed entries (see the decision ledger)
    ri_inf, pi_inf = ris[3], pis[3]
    for group, q, want in [
        ("D2", 2, 1.0),
        ("D4", 2, math.sqrt(13) / 2),
        ("D6", 2, 3 * S2),
        ("D2", INF, 1.0),
        ("D4", INF, 1.0),
        ("D6", INF, 3.0),
    ]:
        assert chiral(ri_inf, group, q) == pytest.approx(want, abs=1e-9)
    for group, q, want in [
        ("D2", 2, 0.25),
        ("D4", 2, S2 / 4),
        ("D6", 2, S10 / 4),
        ("D2", INF, 0.25),
        ("D4", INF, 0.25),
        ("D6", INF, 0.75),
    ]:
        assert chiral(pi_inf, group, q) == pytest.approx(want, abs=1e-9)
    t = 1 / (2 + S2)
    ri_2 = _design(t, t, 6.0)
    pi_2 = projected_invariant(ri_2)
    assert ri_2.triple() == pytest.approx([2 - S2, 2 * S2 - 1, 5 - S2], abs=1e-9)
    for group, q, want in [
        ("D2", 2, 2 - S2),
        ("D4", 2, (2 - S2) * math.sqrt(13) / 2),
        ("D6", 2, math.sqrt(30 - 18 * S2)),  # recomputed, ledgered
        ("D2", INF, 2 - S2),
        ("D4", INF, 2 - S2),
        ("D6", INF, 1.5),
    ]:
        assert chiral(ri_2, group, q) == pytest.approx(want, abs=1e-9)
    for group, q, want in [
        ("D2", 2, t),
        ("D4", 2, S2 - 1),
        ("D6", 2, math.sqrt(2 - S2)),
        ("D2", INF, (S2 - 1) / 2),  # recomputed, ledgered
        ("D4", INF, t),
        ("D6", INF, 1 / S2),
    ]:
        assert chiral(pi_2, group, q) == pytest.approx(want, abs=1e-9)

    # oriented metric tables on {L_inf+, L_inf-, L_2+, L_2-}
    quartet_ri = [
        _design(0.25, 0.25, 12.0, 1),
        _design(0.25, 0.25, 12.0, -1),
        _design(t, t, 6.0, 1),
        _design(t, t, 6.0, -1),
    ]
    quartet_pi = [projected_invariant(r) for r in quartet_ri]
    ms2, mo2 = 0.75 * S2 - 1, math.sqrt(25 - 16 * S2) / (2 * S2)
    msi, moi = 0.75 - 1 / S2, 1.25 - 1 / S2
    Ms2, Mo2 = math.sqrt(6 * (7 - 3 * S2)), math.sqrt(50 - 22 * S2)
    Msi, Moi = 2 + S2, 3.0
    tables = {
        ("pm", 2): [
            [0, 0.5, ms2, mo2],
            [0.5, 0, mo2, ms2],
            [ms2, mo2, 0, 2 - S2],
            [mo2, ms2, 2 - S2, 0],
        ],
        ("pm", INF): [
            [0, 0.5, msi, moi],
            [0.5, 0, moi, msi],
            [msi, moi, 0, 2 - S2],
            [moi, msi, 2 - S2, 0],
        ],
        ("rm", 2): [
            [0, 2, Ms2, Mo2],
            [2, 0, Mo2, Ms2],
            [Ms2, Mo2, 0, 2 * (2 - S2)],
            [Mo2, Ms2, 2 * (2 - S2), 0],
        ],
        ("rm", INF): [
            [0, 2, Msi, Moi],
            [2, 0, Moi, Msi],
            [Msi, Moi, 0, 2 * (2 - S2)],
            [Moi, Msi, 2 * (2 - S2), 0],
        ],
    }
    for (kind, q), table in tables.items():
        for i in range(4):
            for j in range(4):
                if kind == "pm":
                    got = pm(quartet_pi[i], quartet_pi[j], q, oriented=True)
                else:
                    got = rm(quartet_ri[i], quartet_ri[j], q, oriented=True)
                assert got == pytest.approx(table[i][j], abs=1e-9)


def test_ac07_spherical_map_longitudes():
    cases = [
        ((0.0, 0.0), 67.5),
        ((0.0, 1.0), -45.0),
        ((1 - 1 / S2, 0.0), 112.5),
        ((0.5, 0.5), -112.5),
        ((0.0, S2 - 1), 0.0),
    ]
    for (x, y), mu in cases:
        _, lon = slm(ProjectedInvariant2D(x, y, 1))
        assert lon == pytest.approx(mu, abs=1e-9)


def test_ac08_inverse_design_round_trip():
    rng = np.random.default_rng(8)
    done = 0
    while done < 1000:
        x = rng.uniform(0.001, 0.49)
        y = rng.uniform(0.001, 0.995)
        if x + y >= 0.995:
            continue
        size = rng.uniform(0.1, 20.0)
        sign = int(rng.choice([-1, 1]))
        ri = root_invariant(reduce_basis(inverse_design(x, y, size, sign)))
        pi = projected_invariant(ri)
        assert pi.x == pytest.approx(x, abs=1e-9)
        assert pi.y == pytest.approx(y, abs=1e-9)
        assert ri.size == pytest.approx(size, abs=1e-9)
        assert ri.sign == sign
        done += 1


def test_ac09_density_goldens():
    S = PeriodicSequence1D(1.0, np.array([0.0, 1 / 3, 0.5]))
    assert psi(S, 0).corners == pytest.approx(
        np.array([[0, 1], [1 / 12, 0.5], [1 / 6, 1 / 6], [0.25, 0]]), abs=1e-12
    )
    Si = PeriodicSequence1D(1.0, S.centres, np.array([1 / 12, 0.0, 1 / 12]))
    assert psi(Si, 0).corners == pytest.approx(
        np.array([[0, 2 / 3], [1 / 24, 5 / 12], [1 / 8, 1 / 12], [1 / 6, 0]]),
        abs=1e-12,
    )
    assert rho(S, 0) == pytest.approx(7 / 72, abs=1e-12)


def test_ac10_s15_q15():
    c_s = np.array([0, 1, 3, 4, 5, 7, 9, 10, 12], float)
    c_q = np.array([0, 1, 3, 4, 6, 8, 9, 12, 14], float)
    s15 = PeriodicSequence1D(15, c_s)
    q15 = PeriodicSequence1D(15, c_q)
    assert fingerprint_equal(s15, q15, tol=1e-12)

    def nbr_radii(c, p):
        gaps = np.concatenate([np.diff(c), [c[0] + p - c[-1]]])
        return np.array([min(gaps[i - 1], gaps[i]) / 2 for i in range(len(c))])

    s_r = PeriodicSequence1D(15, c_s, nbr_radii(c_s, 15))
    q_r = PeriodicSequence1D(15, c_q, nbr_radii(c_q, 15))
    assert not fingerprint_equal(s_r, q_r, k_max=4)


def test_ac11_density_properties_and_monte_carlo():
    rng = np.random.default_rng(11)

    def sample(min_gap):
        m = int(rng.integers(2, 6))
        while True:
            centres = np.sort(rng.uniform(0, 1, size=m))
            if np.diff(np.concatenate([centres, [centres[0] + 1]])).min() >= min_gap:
                return centres

    for _ in range(50):
        centres = sample(0.02)
        m = len(centres)
        S = PeriodicSequence1D(1.0, centres)
        ts = rng.uniform(0, 0.4, size=100)
        for k in range(2):
            assert psi(S, k + m)(ts + 0.5) == pytest.approx(psi(S, k)(ts), abs=1e-9)
        for k in range(1, m):
            assert psi(S, m - k)(0.5 - ts) == pytest.approx(psi(S, k)(ts), abs=1e-9)

    n = 1_000_000
    for _ in range(10):
        centres = sample(0.05)
        S = PeriodicSequence1D(1.0, centres)
        k = int(rng.integers(0, 3))
        t = float(rng.uniform(0.01, 0.2))
        xs = rng.uniform(0, 1, size=n)
        count = np.zeros(n, dtype=int)
        for c in centres:
            d = np.abs(xs - c)
            count += np.minimum(d, 1 - d) <= t
        est = float((count == k).mean())
        p = float(np.clip(psi(S, k)(t), 1e-12, 1 - 1e-12))
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(est - p) <= 3 * sigma + 1e-6


def test_ac12_periodic_pdd():
    Z3 = PeriodicSet(np.eye(3), np.zeros((1, 3)))
    P = pdd_periodic(Z3, 10, collapse_tol=1e-9)
    assert len(P.rows) == 1
    assert P.rows[0][:6] == pytest.approx([1.0] * 6, abs=1e-9)
    a = amd(Z3, 1000)
    c = ppc(Z3)
    assert abs(a[-1] / 1000 ** (1 / 3) - c) / c <= 0.05
    doubled = PeriodicSet(
        np.diag([2.0, 1.0, 1.0]), np.array([[0, 0, 0], [1, 0, 0]], float)
    )
    assert pdd_dist(pdd_periodic(Z3, 20), pdd_periodic(doubled, 20)) < 1e-9

    rng = np.random.default_rng(12)
    k = 25
    for _ in range(100):
        basis = np.eye(3) + rng.normal(scale=0.05, size=(3, 3))
        m = int(rng.integers(1, 3))
        motif = rng.uniform(0, 1, size=(m, 3)) @ basis
        S = PeriodicSet(basis, motif)
        Q = PeriodicSet(
            basis + rng.normal(scale=0.02, size=(3, 3)),
            motif + rng.normal(scale=0.05, size=motif.shape),
        )
        gap = float(np.abs(deviations(S, k)["ada"] - deviations(Q, k)["ada"]).max())
        assert gap <= pda_dist(S, Q, k) + 1e-9


def test_ac13_dedup_pipeline():
    rng = np.random.default_rng(13)
    corpus, ids = [], []
    for i in range(45):
        basis = np.diag(rng.uniform(2.5, 4.5, size=3)) + rng.normal(
            scale=0.1, size=(3, 3)
        )
        m = int(rng.integers(1, 4))
        frac = rng.uniform(0, 1, size=(m, 3))
        try:
            corpus.append(PeriodicSet.from_fractional(basis, frac))
        except ValueError:
            corpus.append(PeriodicSet.from_fractional(basis, frac[:1]))
        ids.append(f"s{i:02d}")
    planted = []
    for j in range(5):
        src = corpus[j * 7]
        pert = PeriodicSet(
            src.basis,
            src.motif + rng.uniform(-1, 1, size=src.motif.shape) * 0.002,
        )
        corpus.append(pert)
        ids.append(f"dup{j}")
        planted.append((ids[j * 7], f"dup{j}"))
    pairs = dedup(corpus, k=100, ada_threshold=0.01, confirm_threshold=0.01, ids=ids)
    found = {tuple(sorted((a, b))) for a, b, _, _ in pairs}
    want = {tuple(sorted(p)) for p in planted}
    assert found == want  # 100% precision and recall


def test_ac14_seq1p():
    S = OnePeriodicSequence(3.0, np.array([[0.0], [1.0]]))
    Q = OnePeriodicSequence(6.0, np.array([[0.0], [1.0], [3.0]]))
    assert seq_metric(S, Q, INF) == pytest.approx(2.0, abs=1e-9)

    T1 = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], float)
    assert cdm(T1) == pytest.approx(
        np.array([[1, S2, 1, S2], [1, 1, 1, 1], [S2, 1, S2, 1]]), abs=1e-12
    )
    # sign row recomputed from the stated points (ledgered)
    assert list(sign_row(T1)) == [-1, 1, 1, -1]
    sigma = 1 / (S2 * (1 + S2) ** 3)
    assert strengths_row(T1) == pytest.approx([sigma] * 4, abs=1e-12)

    rng = np.random.default_rng(14)
    for _ in range(100):
        m = int(rng.integers(2, 5))
        times = np.sort(rng.uniform(0, 1, size=m))
        while np.diff(np.concatenate([times, [times[0] + 1]])).min() < 0.05:
            times = np.sort(rng.uniform(0, 1, size=m))
        vals = rng.normal(size=(m, 1))
        seq = OnePeriodicSequence(1.0, np.column_stack([times, vals]))
        k = int(rng.integers(2, 4))
        motif = np.vstack([np.column_stack([times + c, vals]) for c in range(k)])
        re_enc = OnePeriodicSequence(float(k), motif)
        assert seq_metric(seq, re_enc, INF) < 1e-9
    for _ in range(100):
        m = int(rng.integers(2, 5))
        times = np.sort(rng.uniform(0, 1, size=m))
        while np.diff(np.concatenate([times, [times[0] + 1]])).min() < 0.1:
            times = np.sort(rng.uniform(0, 1, size=m))
        vals = rng.normal(size=(m, 1))
        seq = OnePeriodicSequence(1.0, np.column_stack([times, vals]))
        eps = float(rng.uniform(0.001, 0.02))
        pert = np.column_stack(
            [
                times + rng.uniform(-eps, eps, m),
                vals + rng.uniform(-eps, eps, (m, 1)),
            ]
        )
        assert seq_metric(seq, OnePeriodicSequence(1.0, pert), INF) <= 2 * eps + 1e-9


def _random_chain(rng, m):
    atoms = np.zeros((m, 3, 3))
    pos = np.zeros(3)
    for i in range(m):
        a = pos
        n = a + rng.normal(size=3)
        c = a + rng.normal(size=3)
        while np.linalg.norm(np.cross(n - a, c - a)) < 1e-2:
            c = a + rng.normal(size=3)
        atoms[i] = (n, a, c)
        pos = c + rng.normal(size=3) * 0.5 + np.array([2.0, 0, 0])
    return Backbone(atoms)


def test_ac15_backbone():
    rng = np.random.default_rng(15)
    for _ in range(100):
        S = _random_chain(rng, int(rng.integers(1, 51)))
        Rm = random_rotation(rng, 3)
        moved = Backbone(S.atoms @ Rm.T + rng.normal(size=3))
        assert bri_dist(S, moved) < 1e-9
    S = _random_chain(rng, 12)
    b = bri(S)
    bm = bri(mirror_backbone(S))
    assert bm == pytest.approx(mirror_bri(b), abs=1e-9)
    mask = np.zeros_like(b, dtype=bool)
    mask[1:, [2, 5, 8]] = True
    assert np.abs((b - bm)[~mask]).max() < 1e-9
    assert np.abs(bri(reconstruct(b)) - b).max() < 1e-9
    sub = subchain(b, 4, 6)
    assert np.array_equal(sub[1:], b[4:9])
    assert np.abs(sub - bri(Backbone(S.atoms[3:9]))).max() < 1e-9
    for _ in range(500):
        m = int(rng.integers(2, 12))
        A, B = _random_chain(rng, m), _random_chain(rng, m)
        assert np.abs(brain(A) - brain(B)).max() <= bri_dist(A, B) + 1e-12
    for _ in range(100):
        A = _random_chain(rng, int(rng.integers(2, 10)))
        eps = 10 ** rng.uniform(-6, -3)
        noise = rng.uniform(-1, 1, size=A.atoms.shape)
        noise *= eps / np.linalg.norm(noise, axis=2, keepdims=True)
        B = Backbone(A.atoms + noise)
        assert bri_dist(A, B) <= lipschitz_lambda(A, B) * eps + 1e-12


def test_ac16_solver_cross_checks():
    rng = np.random.default_rng(16)
    for _ in range(500):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        wp = rng.uniform(0.1, 1, size=m)
        wp /= wp.sum()
        wq = rng.uniform(0.1, 1, size=n)
        wq /= wq.sum()
        costs = rng.uniform(0, 5, size=(m, n))
        value, _ = emd(wp, wq, costs)
        assert value == pytest.approx(emd_oracle(wp, wq, costs), abs=1e-9)
    for _ in range(500):
        m = int(rng.integers(1, 7))
        A = rng.normal(size=(m, 2))
        B = rng.normal(size=(m, 2))
        assert bottleneck(A, B, INF) == pytest.approx(
            bottleneck_oracle(A, B), abs=1e-9
        )
    # triangle vs square inscribed in a circle of radius r, L_inf ground
    # metric on the position-matrix columns; exact optimum (7+3*sqrt3)r/24
    # equals the cost of the published optimal flow (ledgered: the published
    # 5r/16 mis-evaluates two ground distances)
    r = 2.0
    tri = WeightedRows(
        np.full(3, 1 / 3),
        np.array([[r, 0], [-r / 2, r * math.sqrt(3) / 2], [-r / 2, -r * math.sqrt(3) / 2]]),
    )
    sq = WeightedRows(
        np.full(4, 1 / 4), np.array([[r, 0], [0, r], [0, -r], [-r, 0]])
    )
    want = (7 + 3 * math.sqrt(3)) * r / 24
    assert pdd_dist(tri, sq, INF) == pytest.approx(want, abs=1e-9)
    costs = np.abs(tri.rows[:, None, :] - sq.rows[None, :, :]).max(axis=2)
    assert emd_oracle(tri.weights, sq.weights, costs) == pytest.approx(want, abs=1e-9)


def test_ac17_identity_of_indiscernibles():
    # a metric on classes gives d(X, X) = 0 exactly, not a rounding residue
    rng = np.random.default_rng(17)
    for n in (2, 3):
        pts = rng.normal(size=(6, n))
        P = pdd(PointCloud(pts), 4)
        for q in (1, 2, INF):
            assert pdd_dist(P, P, q) == 0.0
        assert pdd_dist(P, P, 2, rms=True) == 0.0
        for mode in ("emd", "lac"):
            X = sdd(PointCloud(pts[:5]), 2)
            assert sdd_dist(X, X, mode) == 0.0
            Y = scd(PointCloud(pts[:5]))
            assert scd_dist(Y, Y, mode) == 0.0
        for q in (1, 2, INF):
            assert mcd(pts, pts, q) == 0.0
            assert mcs(pts, pts, q) == 0.0
        S = PeriodicSet(np.eye(n) + 0.2 * rng.normal(size=(n, n)), rng.uniform(0, 1, (3, n)))
        assert pda_dist(S, S, 6) == 0.0
    for _ in range(20):
        m, value_dim = int(rng.integers(1, 7)), int(rng.integers(0, 4))
        period = float(rng.uniform(0.5, 2.0))
        times = (rng.choice(4 * m, m, replace=False) + rng.uniform(0, 0.5, m)) * period / (4 * m)
        seq = OnePeriodicSequence(period, np.column_stack([times, rng.normal(size=(m, value_dim))]))
        for group in ("cyclic", "dihedral"):
            for equivalence in ("isometry", "rigid") if value_dim in (2, 3) else ("isometry",):
                for q in (1, 2, INF):
                    assert seq_metric(seq, seq, q, group, equivalence) == 0.0
        m = int(rng.integers(1, 12))
        period = float(rng.uniform(0.5, 3.0))
        centres = (np.arange(m) + rng.uniform(0, 0.5, m)) * period / m
        radii = rng.uniform(0, 0.25, m) * period / m if rng.random() < 0.5 else None
        T = PeriodicSequence1D(period, centres, radii)
        assert fingerprint_dist(T, T) == 0.0
        assert fingerprint_equal(T, T, tol=0.0)
    for _ in range(20):
        ri = root_invariant(reduce_basis(rng.normal(size=(2, 2))))
        pi = projected_invariant(ri)
        for q in (1, 2, INF):
            for oriented in (False, True):
                assert rm(ri, ri, q, oriented) == 0.0
                assert pm(pi, pi, q, oriented) == 0.0
    b = bri(_random_chain(rng, 8))
    assert bri_dist(b, b) == 0.0
