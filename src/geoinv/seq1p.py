"""Invariants and metrics of ordered and 1-periodic point sequences.

Finite ordered sequences in R^n are encoded by cyclic distance matrices
(CDM), optionally with a determinant-sign row made continuous by simplex
strengths (CDS).  1-periodic sequences S, Q in R x R^(n-1) are compared by
tiling both motifs to m = lcm(S.m, Q.m) points and minimizing over the
cyclic or dihedral group acting on the motif order, S the larger motif
(``numcore._swapped`` on the keys -motif size, period, motif bytes), so
both argument orders run the same steps.  Every re-encoding of Q is a
rotation of Q, or of Q reversed: time shifts, CDM and signed strengths are
computed once per direction and rotated by index, and as the tiled Q
repeats every Q.m places, Q.m shifts per direction are compared.  The
signed strengths of a motif read one determinant per window of n+1
successive points, for its sign and its strength together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numcore import INF, _pairwise, _real, _rows, _swapped, norm_exponent
from .simplexwise import LAMBDA, _signs_strengths, simplex_sign, strength

#: most cells of one array of the ``seq_metric`` search, m^2 CDM cells (m
#: without a value term), checked before any array is built; a search at
#: the budget holds about 260 MiB (320 MiB with both directions)
SEQ_CELL_BUDGET = 2**23
#: most cells the search compares, directions x the smaller motif's shifts x
#: the cells of one array, checked before any array is built.  On one core
#: of a shared x86-64 VM a cell costs about 14 ns at m = 930 and 30 ns at
#: m = 2896, so motifs of 30 and 31 points take 0.4 s (0.75 s dihedral) and
#: a search at both budgets (m = 2896, 8 shifts) about 2.6 s
SEQ_WORK_BUDGET = 2**26


def cdm(points):
    """Cyclic distance matrix: CDM_ij = |p_j - p_(i+j)| (indices mod m)."""
    pts = _rows(points, "coordinates")
    m = len(pts)
    if m < 2:
        raise ValueError("need at least 2 points")
    j = np.arange(m)
    return _pairwise(pts, pts)[j, (j + np.arange(1, m)[:, None]) % m]


def _windows(points):
    """Stack (m, n+1, n) of the cyclic windows p_i .. p_(i+n) (indices mod m)."""
    pts = _rows(points, "coordinates")
    m, n = pts.shape
    return pts[(np.arange(m)[:, None] + np.arange(n + 1)) % m]


def _signed_windows(points):
    """The cyclic windows of a sequence in R^2 or R^3, and n."""
    windows = _windows(points)
    n = windows.shape[-1]
    if n not in (2, 3):
        raise ValueError("sign rows are defined for n in {2, 3}")
    return windows, n


def sign_row(points):
    """Determinant signs of the n successive difference vectors per index."""
    return simplex_sign(_signed_windows(points)[0])


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
    A, B = _rows(S, "coordinates"), _rows(T, "coordinates")
    if A.shape != B.shape:  # CDMs of m points in R^2 and in R^3 have one shape
        raise ValueError("shape mismatch")
    return _normalized_lq(cdm(A) - cdm(B), norm_exponent(q))


def _signed_strengths(points):
    """sign_row(points) * strengths_row(points), from one determinant per window."""
    signs, strengths = _signs_strengths(*_signed_windows(points))
    return signs * strengths


def mcs(S, T, q=INF):
    """Metric on cyclic distances with signs.

    max of MCD_q and (2/lambda_n) * max_i |sign_i sigma_i(S) - sign_i sigma_i(T)|.
    """
    base = mcd(S, T, q)
    gap = np.abs(_signed_strengths(S) - _signed_strengths(T)).max()  # n is 2 or 3 here
    return float(max(base, 2.0 / LAMBDA[_rows(S, "coordinates").shape[1]] * gap))


@dataclass(frozen=True)
class OnePeriodicSequence:
    """Motif of points in [0, l) x R^(n-1) repeated with period l in time."""

    period: float
    motif: np.ndarray

    def __post_init__(self):
        period = _real(self.period, "period", positive=True)
        motif = _rows(self.motif, "motif coordinates")
        times = motif[:, 0] % period
        motif = motif.copy()
        motif[:, 0] = times
        order = np.argsort(times)
        motif = motif[order]
        if (np.diff(motif[:, 0]) <= 0).any():
            raise ValueError("time projections must be distinct")
        object.__setattr__(self, "period", period)
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
    return np.concatenate([np.diff(t), [t[0] - t[-1] + S.period]])


def seq_metric(S, Q, q=INF, group="cyclic", equivalence="isometry"):
    """Metric between 1-periodic sequences.

    The minimum over the cyclic (or dihedral) group of the larger of the
    time-shift distance and the projected-motif CDM (isometry) or CDS-based
    (rigid) metric, searched by rotations of the smaller motif as in the
    module docstring, so d(S, Q) == d(Q, S) exactly.  Raises ValueError
    before any array is built when one array of the search passes
    SEQ_CELL_BUDGET (memory) or its comparisons pass SEQ_WORK_BUDGET (time).
    """
    qn = norm_exponent(q)
    if group not in ("cyclic", "dihedral"):
        raise ValueError("group must be 'cyclic' or 'dihedral'")
    if equivalence not in ("isometry", "rigid"):
        raise ValueError("equivalence must be 'isometry' or 'rigid'")
    if S.value_dim != Q.value_dim:
        raise ValueError(f"value dimensions {S.value_dim} and {Q.value_dim} differ")
    if _swapped((-S.m, S.period, S.motif.tobytes()), (-Q.m, Q.period, Q.motif.tobytes())):
        S, Q = Q, S
    m = math.lcm(S.m, Q.m)
    # a one-point motif has an empty CDM, so its value term is 0
    use_values = S.value_dim >= 1 and m > 1
    rigid = use_values and equivalence == "rigid"
    directions = 2 if group == "dihedral" else 1
    cells = m * (m if use_values else 1)
    if cells > SEQ_CELL_BUDGET:
        raise ValueError(f"motif sizes {S.m} and {Q.m} need arrays of {cells} cells, "
                         f"over the cell budget of {SEQ_CELL_BUDGET}")
    if directions * Q.m * cells > SEQ_WORK_BUDGET:
        raise ValueError(f"motif sizes {S.m} and {Q.m} need {directions * Q.m * cells} search cells, "
                         f"over the work budget of {SEQ_WORK_BUDGET}")

    def encode(motif, gaps):
        """Tiled gaps, CDM and signed strengths of one motif direction."""
        reps = m // len(motif)
        vals = np.tile(motif[:, 1:], (reps, 1))
        cdm_v = cdm(vals) if use_values else None
        return np.tile(gaps, reps), cdm_v, _signed_strengths(vals) if rigid else None

    ts_s, cdm_s, ss_s = encode(S.motif, time_shift(S))
    g = time_shift(Q)
    # reversed point i is Q's point Q.m-1-i, so reversed gap i is Q's gap Q.m-2-i
    encodings = [(Q.motif, g), (Q.motif[::-1], np.roll(g[::-1], -1))]
    best = math.inf
    for ts_q, cdm_q, ss_q in (encode(*e) for e in encodings[:directions]):
        for s in range(Q.m):
            idx = (np.arange(m) + s) % m
            d = _normalized_lq(ts_s - ts_q[idx], qn)
            if use_values and d < best:
                d = max(d, _normalized_lq(cdm_s - cdm_q[:, idx], qn))
                if rigid and d < best:
                    d = max(d, 2.0 / LAMBDA[S.value_dim] * np.abs(ss_s - ss_q[idx]).max())
            best = min(best, d)
    return best
