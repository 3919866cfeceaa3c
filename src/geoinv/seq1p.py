"""Invariants and metrics of ordered and 1-periodic point sequences.

Finite ordered sequences in R^n are encoded by cyclic distance matrices
(CDM), optionally with a determinant-sign row made continuous by simplex
strengths (CDS).  1-periodic sequences in R x R^(n-1) are compared by
extending motifs to the least common multiple size and minimizing over the
cyclic or dihedral group acting on the motif order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numcore import INF, _pairwise, norm_exponent
from .simplexwise import LAMBDA, simplex_sign, strength

#: cap for the least-common-multiple motif extension
LCM_CAP = 100_000


def cdm(points):
    """Cyclic distance matrix: CDM_ij = |p_j - p_(i+j)| (indices mod m)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m = len(pts)
    if m < 2:
        raise ValueError("need at least 2 points")
    j = np.arange(m)
    return _pairwise(pts, pts)[j, (j + np.arange(1, m)[:, None]) % m]


def _windows(points):
    """Stack (m, n+1, n) of the cyclic windows p_i .. p_(i+n) (indices mod m)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m, n = pts.shape
    return pts[(np.arange(m)[:, None] + np.arange(n + 1)) % m]


def sign_row(points):
    """Determinant signs of the n successive difference vectors per index."""
    windows = _windows(points)
    if windows.shape[-1] not in (2, 3):
        raise ValueError("sign rows are defined for n in {2, 3}")
    return simplex_sign(windows)


def strengths_row(points):
    """Strengths of the simplices on p_i .. p_(i+n) (indices mod m)."""
    return strength(_windows(points))


def cds(points):
    """Cyclic distances with signs: CDM plus the sign row (m x m matrix)."""
    return np.vstack([cdm(points), sign_row(points)])


def _normalized_lq(diff, qn):
    """max |diff| for qn = INF, else the L_qn norm of diff over size^(1/qn)."""
    diff = np.abs(diff)
    if qn is INF:
        return float(diff.max())
    return float((diff**qn).sum() ** (1.0 / qn) / diff.size ** (1.0 / qn))


def mcd(S, T, q=INF):
    """Metric based on cyclic distances: normalized L_q of CDM difference."""
    A, B = cdm(S), cdm(T)
    if A.shape != B.shape:
        raise ValueError("shape mismatch")
    return _normalized_lq(A - B, norm_exponent(q))


def _signed_strengths(points):
    return sign_row(points) * strengths_row(points)


def mcs(S, T, q=INF):
    """Metric on cyclic distances with signs.

    max of MCD_q and (2/lambda_n) * max_i |sign_i sigma_i(S) - sign_i sigma_i(T)|.
    """
    pts_s = np.atleast_2d(np.asarray(S, dtype=float))
    n = pts_s.shape[1]
    lam = LAMBDA[n]
    base = mcd(S, T, q)
    gap = np.abs(_signed_strengths(S) - _signed_strengths(T)).max()
    return float(max(base, 2.0 / lam * gap))


@dataclass(frozen=True)
class OnePeriodicSequence:
    """Motif of points in [0, l) x R^(n-1) repeated with period l in time."""

    period: float
    motif: np.ndarray

    def __post_init__(self):
        if not self.period > 0:
            raise ValueError("period must be positive")
        motif = np.atleast_2d(np.asarray(self.motif, dtype=float))
        if not (np.isfinite(self.period) and np.isfinite(motif).all()):
            raise ValueError("non-finite period or coordinates")
        times = motif[:, 0] % self.period
        motif = motif.copy()
        motif[:, 0] = times
        order = np.argsort(times)
        motif = motif[order]
        if (np.diff(motif[:, 0]) <= 0).any():
            raise ValueError("time projections must be distinct")
        object.__setattr__(self, "motif", motif)

    @property
    def m(self):
        return len(self.motif)

    @property
    def value_dim(self):
        return self.motif.shape[1] - 1


def time_shift(S):
    """Gaps (d_1, ..., d_m) between successive time projections; sums to l."""
    t = S.motif[:, 0]
    return np.concatenate([np.diff(t), [S.motif[0, 0] + S.period - t[-1]]])


def _extend(S, copies):
    """Concatenate ``copies`` shifted copies of the motif (period multiplies)."""
    motif = np.tile(S.motif, (copies, 1))
    motif[:, 0] += np.repeat(np.arange(copies) * S.period, S.m)
    return OnePeriodicSequence(S.period * copies, motif)


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


def seq_metric(S, Q, q=INF, group="cyclic", equivalence="isometry"):
    """Metric between 1-periodic sequences.

    Motifs are extended to the least common multiple of their sizes; the
    result is the minimum over the cyclic (or dihedral) group of the larger
    of the time-shift distance and the projected-motif CDM (isometry) or
    CDS-based (rigid) metric.
    """
    qn = norm_exponent(q)
    m = math.lcm(S.m, Q.m)
    if m > LCM_CAP:
        raise ValueError(f"lcm motif size {m} exceeds cap {LCM_CAP}")
    S_ext = _extend(S, m // S.m)
    Q_ext = _extend(Q, m // Q.m)

    ts_s = time_shift(S_ext)
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
