"""Density functions psi_k of 1-periodic point/interval sequences."""

from __future__ import annotations

import numpy as np
import pytest

from geoinv.density1d import (
    PeriodicSequence1D,
    PiecewiseLinear,
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


def test_piecewise_linear_integral():
    pl = PiecewiseLinear([[0.0, 1.0], [1.0, 0.0]])
    assert pl.integral() == pytest.approx(0.5)
    assert pl(0.5) == pytest.approx(0.5)


def test_overlapping_intervals_rejected():
    with pytest.raises(ValueError):
        PeriodicSequence1D(1.0, np.array([0.0, 0.1]), np.array([0.06, 0.06]))
