"""Density functions psi_k of 1-periodic point/interval sequences."""

from __future__ import annotations

import numpy as np
import pytest

import geoinv.density1d as density1d
from geoinv.density1d import (
    PeriodicSequence1D,
    PiecewiseLinear,
    _gaps,
    fingerprint_dist,
    fingerprint_equal,
    psi,
    rho,
)

S = PeriodicSequence1D(1.0, np.array([0.0, 1 / 3, 0.5]))


def _corners_match(pl, expected, tol=1e-12):
    exp = np.asarray(expected, dtype=float)
    assert pl.corners.shape == exp.shape, pl.corners
    assert pl.corners == pytest.approx(exp, abs=tol)


def test_psi0_point_golden():
    _corners_match(psi(S, 0), [(0, 1), (1 / 12, 0.5), (1 / 6, 1 / 6), (0.25, 0)])


def test_psi0_interval_golden():
    Si = PeriodicSequence1D(1.0, S.centres, np.array([1 / 12, 0.0, 1 / 12]))
    _corners_match(
        psi(Si, 0), [(0, 2 / 3), (1 / 24, 5 / 12), (1 / 8, 1 / 12), (1 / 6, 0)]
    )


def test_rho_goldens():
    assert rho(S, 0) == pytest.approx(7 / 72, abs=1e-12)
    # closed form (1/2) sum d_(i-1) d_(i+k-1); the printed 11/144 halves it
    assert rho(S, 1) == pytest.approx(11 / 72, abs=1e-12)
    assert rho(S, 2) == pytest.approx(11 / 72, abs=1e-12)


def test_rho_matches_integral():
    for k in range(6):
        assert rho(S, k) == pytest.approx(psi(S, k).integral(), abs=1e-12)


def test_psi_total_density_is_one(rng):
    # sum over k of psi_k(t) = 1 for any t (coverage partitions the circle)
    for _ in range(10):
        m = int(rng.integers(2, 6))
        centres = np.sort(rng.uniform(0, 1, size=m))
        if np.diff(np.concatenate([centres, [centres[0] + 1]])).min() < 0.02:
            continue
        Sq = PeriodicSequence1D(1.0, centres)
        ts = rng.uniform(0, 0.8, size=30)
        total = sum(psi(Sq, k)(ts) for k in range(2 * m + 4))
        assert total == pytest.approx(np.ones_like(ts), abs=1e-9)


def test_periodicity_shift(rng):
    # psi_(k+m)(t + 1/2) = psi_k(t) for zero radii, period 1
    for _ in range(10):
        m = int(rng.integers(2, 5))
        centres = np.sort(rng.uniform(0, 1, size=m))
        if np.diff(np.concatenate([centres, [centres[0] + 1]])).min() < 0.02:
            continue
        Sq = PeriodicSequence1D(1.0, centres)
        ts = rng.uniform(0, 0.4, size=50)
        for k in range(3):
            assert psi(Sq, k + m)(ts + 0.5) == pytest.approx(
                psi(Sq, k)(ts), abs=1e-9
            )


def test_symmetry_reflection(rng):
    # psi_(m-k)(1/2 - t) = psi_k(t) for zero radii, 1 <= k < m
    for _ in range(10):
        m = int(rng.integers(3, 6))
        centres = np.sort(rng.uniform(0, 1, size=m))
        if np.diff(np.concatenate([centres, [centres[0] + 1]])).min() < 0.02:
            continue
        Sq = PeriodicSequence1D(1.0, centres)
        ts = rng.uniform(0, 0.4, size=50)
        for k in range(1, m):
            assert psi(Sq, m - k)(0.5 - ts) == pytest.approx(
                psi(Sq, k)(ts), abs=1e-9
            )


def _monte_carlo_psi(seq, k, t, n, rng):
    """Fraction of the period covered by exactly k thickened intervals."""
    xs = rng.uniform(0, seq.period, size=n)
    count = np.zeros(n, dtype=int)
    for c, r in zip(seq.centres, seq.radii):
        d = np.abs(xs - c)
        d = np.minimum(d, seq.period - d)
        count += d <= r + t
    return float((count == k).mean())


def test_monte_carlo_oracle(rng):
    seqs = [
        PeriodicSequence1D(1.0, np.array([0.0, 1 / 3, 0.5])),
        PeriodicSequence1D(2.0, np.array([0.0, 0.5, 0.9, 1.4])),
        PeriodicSequence1D(1.0, np.array([0.1, 0.45, 0.7]), np.array([0.05, 0.1, 0.02])),
    ]
    n = 200_000
    for seq in seqs:
        for k in (0, 1, 2):
            f = psi(seq, k)
            t = float(rng.uniform(0.01, 0.2)) * seq.period
            est = _monte_carlo_psi(seq, k, t, n, rng)
            p = float(np.clip(f(t), 1e-9, 1 - 1e-9))
            sigma = (p * (1 - p) / n) ** 0.5
            assert abs(est - p) <= 4 * sigma + 1e-3


def test_s15_q15_fingerprints():
    s15 = PeriodicSequence1D(15, np.array([0, 1, 3, 4, 5, 7, 9, 10, 12], float))
    q15 = PeriodicSequence1D(15, np.array([0, 1, 3, 4, 6, 8, 9, 12, 14], float))
    assert fingerprint_equal(s15, q15, tol=1e-12)
    assert fingerprint_dist(s15, q15, k_max=9) == pytest.approx(0.0, abs=1e-12)


def test_s15_q15_radii_differ():
    def nbr_radii(c, p):
        gaps = np.concatenate([np.diff(c), [c[0] + p - c[-1]]])
        return np.array([min(gaps[i - 1], gaps[i]) / 2 for i in range(len(c))])

    c_s = np.array([0, 1, 3, 4, 5, 7, 9, 10, 12], float)
    c_q = np.array([0, 1, 3, 4, 6, 8, 9, 12, 14], float)
    s = PeriodicSequence1D(15, c_s, nbr_radii(c_s, 15))
    q = PeriodicSequence1D(15, c_q, nbr_radii(c_q, 15))
    assert not fingerprint_equal(s, q, k_max=4)
    assert fingerprint_dist(s, q, k_max=4) > 1e-6


def test_negative_k_max_rejected():
    T = PeriodicSequence1D(1.0, np.array([0.2, 0.9]))
    with pytest.raises(ValueError, match="k_max"):
        fingerprint_equal(S, T, k_max=-1)
    with pytest.raises(ValueError, match="k_max"):
        fingerprint_dist(S, T, k_max=-1)


@pytest.mark.parametrize("k", [10**20, 9 * 10**18, 10**6])
def test_k_over_hinge_budget_rejected(k):
    # 10**20 is past int64 and 9e18 past what float64 resolves on the t-axis
    T = PeriodicSequence1D(1.0, np.array([0.2, 0.9]))
    with pytest.raises(ValueError, match="hinge budget"):
        psi(T, k)
    with pytest.raises(ValueError, match="hinge budget"):
        fingerprint_dist(S, T, k)
    with pytest.raises(ValueError, match="hinge budget"):
        fingerprint_equal(S, T, k)


def test_hinge_budget_bounds_k_plus_2_times_m(monkeypatch):
    monkeypatch.setattr(density1d, "HINGE_BUDGET", 12)
    assert len(psi(S, 2).corners) > 1  # (2 + 2) * 3 = 12
    assert fingerprint_dist(S, S, 2) == 0.0
    with pytest.raises(ValueError, match="hinge budget"):
        psi(S, 3)
    with pytest.raises(ValueError, match="hinge budget"):
        fingerprint_dist(S, S, 3)


def test_piecewise_linear_integral():
    pl = PiecewiseLinear([[0.0, 1.0], [1.0, 0.0]])
    assert pl.integral() == pytest.approx(0.5)
    assert pl(0.5) == pytest.approx(0.5)


def test_overlapping_intervals_rejected():
    with pytest.raises(ValueError):
        PeriodicSequence1D(1.0, np.array([0.0, 0.1]), np.array([0.06, 0.06]))


# ------------------------------------------------- per-k corner-list reference
#
# psi_k built per k from one trapezium corner list per interval, summed by
# interpolation on the merged grid and compared on that grid plus midpoints:
# the oracle for psi, fingerprint_dist and fingerprint_equal.


def _ref_merge_corners(xs, ys):
    keep_x, keep_y = [xs[0]], [ys[0]]
    for x, y in zip(xs[1:], ys[1:]):
        if x - keep_x[-1] <= 1e-12:
            keep_y[-1] = y
        else:
            keep_x.append(x)
            keep_y.append(y)
    out_x, out_y = [keep_x[0]], [keep_y[0]]
    for i in range(1, len(keep_x) - 1):
        x0, x1, x2 = out_x[-1], keep_x[i], keep_x[i + 1]
        y0, y1, y2 = out_y[-1], keep_y[i], keep_y[i + 1]
        if abs(y0 + (y2 - y0) * (x1 - x0) / (x2 - x0) - y1) > 1e-12:
            out_x.append(x1)
            out_y.append(y1)
    if len(keep_x) > 1:
        out_x.append(keep_x[-1])
        out_y.append(keep_y[-1])
    return np.column_stack([out_x, out_y])


def _ref_corner_list(pts):
    out = []
    for p in pts:
        if not out or p[0] > out[-1][0] + 1e-12:
            out.append(p)
    return out


def _ref_sum_piecewise(pieces):
    xs = np.array(sorted({0.0} | {p[0] for piece in pieces for p in piece}))
    total = np.zeros_like(xs)
    for piece in pieces:
        px = np.array([p[0] for p in piece])
        py = np.array([p[1] for p in piece])
        total += np.interp(xs, px, py, left=py[0], right=py[-1])
    return _ref_merge_corners(xs, total)


def _ref_psi(S, k):
    """Corners of psi_k, one trapezium corner list per interval."""
    period, m = S.period, S.m
    radii = S.radii / period
    g = _gaps(1.0, S.centres / period, radii)
    total_len = 2.0 * radii.sum()
    if k == 0:
        gs = np.sort(g)
        xs, ys, acc = [0.0], [1.0 - total_len], 0.0
        for i in range(m):
            xs.append(gs[i] / 2.0)
            ys.append(1.0 - total_len - acc - (m - i) * gs[i])
            acc += gs[i]
        corners = _ref_merge_corners(np.array(xs), np.array(ys))
    else:
        pieces = []
        for i in range(m):
            if k == 1:
                gl, gr = g[i], g[(i + 1) % m]
                lo, hi, r = min(gl, gr), max(gl, gr), radii[i]
                pts = [(0.0, 2 * r), (lo / 2, lo + 2 * r), (hi / 2, lo + 2 * r),
                       ((gl + gr) / 2 + r, 0.0)]
            else:
                s = sum(g[(i + j) % m] for j in range(1, k)) + 2.0 * sum(
                    radii[(i + j) % m] for j in range(1, k - 1)
                )
                a = g[i] + 2.0 * radii[i]
                b = g[(i + k) % m] + 2.0 * radii[(i + k - 1) % m]
                lo, hi = min(a, b), max(a, b)
                pts = [(s / 2, 0.0), ((s + lo) / 2, lo), ((s + hi) / 2, lo),
                       ((s + lo + hi) / 2, 0.0)]
            pieces.append(_ref_corner_list(pts))
        corners = _ref_sum_piecewise(pieces)
    corners[:, 0] *= period
    return PiecewiseLinear(corners)


def _ref_sups(S, Q, k_max):
    """max |psi_k[S] - psi_k[Q]| on both corner grids and their midpoints."""
    sups = []
    for k in range(k_max + 1):
        f, h = _ref_psi(S, k), _ref_psi(Q, k)
        xs = np.unique(np.concatenate([f.corners[:, 0], h.corners[:, 0]]))
        ts = np.concatenate([xs, (xs[:-1] + xs[1:]) / 2.0])
        sups.append(float(np.abs(f(ts) - h(ts)).max()))
    return np.array(sups)


def _ref_fingerprint_dist(S, Q, k_max):
    return float((_ref_sups(S, Q, k_max) / (np.arange(k_max + 1) + 1.0) ** (2.0 / 3.0)).max())


def _random_sequence(rng, m, period, radii, touching):
    """m points (or disjoint intervals) in [0, period); optionally two touch."""
    while True:
        c = np.sort(rng.uniform(0, period, m))
        gaps = np.diff(np.concatenate([c, [c[0] + period]]))
        if gaps.min() < 1e-3 * period:
            continue
        r = None
        if radii:
            r = np.minimum(gaps, np.roll(gaps, 1)) * rng.uniform(0.0, 0.5, m)
            if touching and m > 1:
                j = int(rng.integers(m))
                r[j] = gaps[j] - r[(j + 1) % m]
        try:
            return PeriodicSequence1D(period, c, r)
        except ValueError:
            continue


def _oracle_pairs(n, seed):
    """Seeded (S, Q, k_max) cases: periods 0.5-5, m = 1-14, k_max up to 3m + 2."""
    rng = np.random.default_rng(seed)
    for trial in range(n):
        m, m2 = (int(v) for v in rng.integers(1, 15, size=2))
        p, p2 = (float(v) for v in rng.choice([0.5, 1.0, 2.5, 5.0], size=2))
        radii, touching = trial % 2 == 1, trial % 4 == 3
        S = _random_sequence(rng, m, p, radii, touching)
        Q = _random_sequence(rng, m2, p2, radii, touching)
        yield S, Q, int(rng.integers(0, 3 * max(m, m2) + 3))


def _isometric_copy(rng, S, reflect):
    c = S.period - S.centres if reflect else S.centres
    return PeriodicSequence1D(S.period, (c + rng.uniform(0, S.period)) % S.period, S.radii)


def test_psi_matches_reference():
    for S, _, k_max in _oracle_pairs(60, 1):
        for k in range(k_max + 1):
            got, want = psi(S, k).corners, _ref_psi(S, k).corners
            assert got.shape == want.shape, (S, k)
            assert np.abs(got - want).max() <= 1e-12, (S, k)


def test_fingerprints_match_reference():
    rng = np.random.default_rng(2)
    for trial, (S, Q, k_max) in enumerate(_oracle_pairs(60, 3)):
        assert abs(fingerprint_dist(S, Q, k_max) - _ref_fingerprint_dist(S, Q, k_max)) <= 1e-12
        assert fingerprint_equal(S, Q, k_max) == bool((_ref_sups(S, Q, k_max) <= 1e-9).all())
        try:
            T = _isometric_copy(rng, S, trial % 3 == 0)
        except ValueError:  # rounding made touching intervals overlap
            continue
        assert fingerprint_equal(S, T, k_max)
        assert (_ref_sups(S, T, k_max) <= 1e-9).all()
        assert abs(fingerprint_dist(S, T, k_max) - _ref_fingerprint_dist(S, T, k_max)) <= 1e-12


def test_period_scaling_golden():
    # S at period 2.5: corners scale by 2.5 on the t-axis, values unchanged
    S25 = PeriodicSequence1D(2.5, 2.5 * S.centres)
    _corners_match(
        psi(S25, 0), [(0, 1), (2.5 / 12, 0.5), (2.5 / 6, 1 / 6), (2.5 / 4, 0)]
    )
    # sup_t |psi_0[S](t) - psi_0[S](t / 2.5)| is at t = 1/4: psi_0[S](1/10) = 13/30
    assert fingerprint_dist(S, S25, k_max=0) == pytest.approx(13 / 30, abs=1e-12)
    assert fingerprint_dist(S25, S25, k_max=9) <= 1e-12


def test_single_interval_golden():
    # one interval of radius 0.2 in period 2: gap 1.6, psi_k+1 = psi_k shifted by 1
    T = PeriodicSequence1D(2.0, np.array([0.3]), np.array([0.2]))
    _corners_match(psi(T, 0), [(0, 0.8), (0.8, 0)])
    _corners_match(psi(T, 1), [(0, 0.2), (0.8, 1), (1.8, 0)])
    _corners_match(psi(T, 2), [(0, 0), (0.8, 0), (1.8, 1), (2.8, 0)])
    _corners_match(psi(T, 5), [(0, 0), (3.8, 0), (4.8, 1), (5.8, 0)])


def test_touching_intervals_golden():
    # [0, 0.2] and [0.2, 0.6] touch; the one gap is 0.4, L = 0.6
    T = PeriodicSequence1D(1.0, np.array([0.1, 0.4]), np.array([0.1, 0.2]))
    _corners_match(psi(T, 0), [(0, 0.4), (0.2, 0)])
    _corners_match(psi(T, 1), [(0, 0.6), (0.2, 0.6), (0.3, 0.2), (0.4, 0)])
    _corners_match(
        psi(T, 2), [(0, 0), (0.2, 0.4), (0.3, 0.8), (0.4, 0.8), (0.5, 0.4), (0.7, 0)]
    )
    full = PeriodicSequence1D(1.0, np.array([0.0, 0.5]), np.array([0.25, 0.25]))
    _corners_match(psi(full, 0), [(0, 0)])
    assert fingerprint_equal(T, T, k_max=7)


def test_collinear_corners_merged():
    # gaps 1, 1, 2, 2: at t = 1 and t = 2 two +2 hinges meet one -4 hinge
    T = PeriodicSequence1D(6.0, np.array([0.0, 1.0, 2.0, 4.0]))
    _corners_match(psi(T, 2), [(0, 0), (0.5, 0), (1.5, 2 / 3), (2.5, 0)])
    _corners_match(psi(T, 6), [(0, 0), (3.5, 0), (4.5, 2 / 3), (5.5, 0)])


@pytest.mark.parametrize(
    "period, centres, radii",
    [
        (float("nan"), [0.0, 0.3], None),
        (float("inf"), [0.0, 0.3], None),
        (1.0, [0.0, float("nan")], None),
        (1.0, [0.0, float("inf")], None),
        (1.0, [0.0, 0.3], [0.1, float("nan")]),
        (1.0, [0.0, 0.3], [0.1, float("inf")]),
        (1.0, [], None),
        (1.0, [[0.0, 0.3]], None),
        (1.0, 0.3, None),
    ],
)
def test_bad_sequences_rejected(period, centres, radii):
    with pytest.raises(ValueError):
        PeriodicSequence1D(period, np.array(centres), None if radii is None else np.array(radii))


@pytest.mark.parametrize("tol", [float("nan"), -1e-9])
def test_bad_tol_rejected(tol):
    T = PeriodicSequence1D(1.0, np.array([0.2, 0.9]))
    with pytest.raises(ValueError, match="tol"):
        fingerprint_equal(S, T, tol=tol)
