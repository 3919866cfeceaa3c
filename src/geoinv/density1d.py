"""Analytic density functions psi_k of 1-periodic sequences in R.

psi_k(t) is the fraction of the period covered by exactly k intervals when
every point (or interval) is thickened by radius t.  All psi_k are piecewise
linear with closed-form corner points; point sequences are the zero-radius
special case of disjoint-interval sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: corner points closer than this on the t-axis are merged
CORNER_TOL = 1e-12


@dataclass(frozen=True)
class PeriodicSequence1D:
    """Periodic sequence of disjoint intervals [c_i - r_i, c_i + r_i] mod period."""

    period: float
    centres: np.ndarray
    radii: np.ndarray = None

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("period must be positive")
        centres = np.asarray(self.centres, dtype=float)
        radii = (
            np.zeros_like(centres)
            if self.radii is None
            else np.asarray(self.radii, dtype=float)
        )
        if len(radii) != len(centres):
            raise ValueError("radii do not match centres")
        if (radii < 0).any():
            raise ValueError("radii must be non-negative")
        order = np.argsort(centres)
        centres, radii = centres[order], radii[order]
        if (np.diff(centres) <= 0).any():
            raise ValueError("centres must be distinct")
        gaps = _gaps(self.period, centres, radii)
        if (gaps < 0).any():
            raise ValueError("intervals overlap")
        object.__setattr__(self, "centres", centres)
        object.__setattr__(self, "radii", radii)

    @property
    def m(self):
        return len(self.centres)


def _gaps(period, centres, radii):
    """gaps[i] = gap before interval i (between intervals i-1 and i)."""
    left = centres - radii
    right = centres + radii
    return np.concatenate([[left[0] + period - right[-1]], left[1:] - right[:-1]])


@dataclass(frozen=True)
class PiecewiseLinear:
    """Continuous piecewise-linear function given by its corner points.

    Constant extension applies beyond the last corner (and before the first).
    """

    corners: np.ndarray

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.corners, dtype=float))
        if (np.diff(c[:, 0]) <= 0).any():
            raise ValueError("corner abscissae must strictly increase")
        object.__setattr__(self, "corners", c)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        x, y = self.corners[:, 0], self.corners[:, 1]
        return np.interp(t, x, y)

    def integral(self):
        """Exact area under the graph up to the last corner."""
        x, y = self.corners[:, 0], self.corners[:, 1]
        return float(0.5 * ((y[1:] + y[:-1]) * np.diff(x)).sum())


def _merge_corners(xs, ys):
    """Drop duplicated abscissae and collinear interior corners."""
    keep_x, keep_y = [xs[0]], [ys[0]]
    for x, y in zip(xs[1:], ys[1:]):
        if x - keep_x[-1] <= CORNER_TOL:
            keep_y[-1] = y
        else:
            keep_x.append(x)
            keep_y.append(y)
    # remove interior corners lying on the segment of their neighbours
    out_x, out_y = [keep_x[0]], [keep_y[0]]
    for i in range(1, len(keep_x) - 1):
        x0, x1, x2 = out_x[-1], keep_x[i], keep_x[i + 1]
        y0, y1, y2 = out_y[-1], keep_y[i], keep_y[i + 1]
        interp = y0 + (y2 - y0) * (x1 - x0) / (x2 - x0)
        if abs(interp - y1) > 1e-12:
            out_x.append(x1)
            out_y.append(y1)
    if len(keep_x) > 1:
        out_x.append(keep_x[-1])
        out_y.append(keep_y[-1])
    return PiecewiseLinear(np.column_stack([out_x, out_y]))


def _corner_list(pts):
    """Clean a corner list: drop repeated abscissae (keep the first)."""
    out = []
    for p in pts:
        if not out or p[0] > out[-1][0] + CORNER_TOL:
            out.append(p)
    return out


def _sum_piecewise(pieces, t_start=0.0, start_value=0.0):
    """Sum trapezium corner lists into one PiecewiseLinear."""
    if not pieces:
        return PiecewiseLinear([[t_start, start_value], [t_start + 1.0, start_value]])
    breaks = sorted({t_start} | {p[0] for piece in pieces for p in piece})
    xs = np.array(breaks)
    total = np.full_like(xs, start_value)
    for piece in pieces:
        px = np.array([p[0] for p in piece])
        py = np.array([p[1] for p in piece])
        total += np.interp(xs, px, py, left=py[0], right=py[-1])
    return _merge_corners(xs, total)


def psi(S, k):
    """Exact density function psi_k as a PiecewiseLinear in the original scale.

    The sequence is scaled internally to period 1; the result's t-axis is
    rescaled back by the period.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    period = S.period
    centres = S.centres / period
    radii = S.radii / period
    m = len(centres)
    g = _gaps(1.0, centres, radii)  # g[i] = gap before interval i
    total_len = 2.0 * radii.sum()

    if k == 0:
        order = np.argsort(g)
        gs = g[order]
        xs, ys = [0.0], [1.0 - total_len]
        acc = 0.0
        for i in range(m):
            value = 1.0 - total_len - acc - (m - i) * gs[i]
            xs.append(gs[i] / 2.0)
            ys.append(value)
            acc += gs[i]
        pl = _merge_corners(np.array(xs), np.array(ys))
        return _rescale(pl, period)

    pieces = []
    if k == 1:
        for i in range(m):
            gl, gr = g[i], g[(i + 1) % m]
            lo, hi = min(gl, gr), max(gl, gr)
            r = radii[i]
            pieces.append(
                _corner_list(
                    [
                        (0.0, 2.0 * r),
                        (lo / 2.0, lo + 2.0 * r),
                        (hi / 2.0, lo + 2.0 * r),
                        ((gl + gr) / 2.0 + r, 0.0),
                    ]
                )
            )
    else:
        for i in range(m):
            s = sum(g[(i + j) % m] for j in range(1, k)) + 2.0 * sum(
                radii[(i + j) % m] for j in range(1, k - 1)
            )
            a = g[i % m] + 2.0 * radii[i % m]
            b = g[(i + k) % m] + 2.0 * radii[(i + k - 1) % m]
            lo, hi = min(a, b), max(a, b)
            pieces.append(
                _corner_list(
                    [
                        (s / 2.0, 0.0),
                        ((s + lo) / 2.0, lo),
                        ((s + hi) / 2.0, lo),
                        ((s + lo + hi) / 2.0, 0.0),
                    ]
                )
            )
    pl = _sum_piecewise(pieces, 0.0, 0.0)
    return _rescale(pl, period)


def _rescale(pl, period):
    corners = pl.corners.copy()
    corners[:, 0] *= period
    return PiecewiseLinear(corners)


def rho(S, k):
    """Area under psi_k of the period-1 rescaled sequence.

    Closed forms for zero radii: (1/4) sum d_i^2 for k = 0 and
    (1/2) sum d_(i-1) d_(i+k-1) for k > 0, with d the inter-point gaps.
    """
    if (S.radii > 0).any():
        raise ValueError("rho is defined for zero-radius sequences")
    d = _gaps(1.0, S.centres / S.period, S.radii / S.period)
    if k == 0:
        return float(0.25 * (d**2).sum())
    return float(0.5 * (np.roll(d, 1) * np.roll(d, 1 - k)).sum())


def _compare_grid(f, h):
    xs = np.unique(np.concatenate([f.corners[:, 0], h.corners[:, 0]]))
    mids = (xs[:-1] + xs[1:]) / 2.0
    return np.concatenate([xs, mids])


def fingerprint_equal(S, Q, k_max=None, tol=1e-9):
    """True iff the density fingerprints of two sequences coincide.

    For zero-radius sequences the periodicity psi_{k+m}(t + p/2) = psi_k(t)
    makes k = 0..max(m_S, m_Q) sufficient; with radii the comparison runs to
    ``k_max`` (default 2 * max motif size).
    """
    zero_radii = not (S.radii > 0).any() and not (Q.radii > 0).any()
    if k_max is None:
        k_max = max(S.m, Q.m) if zero_radii else 2 * max(S.m, Q.m)
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    for k in range(k_max + 1):
        f, h = psi(S, k), psi(Q, k)
        ts = _compare_grid(f, h)
        if np.abs(f(ts) - h(ts)).max() > tol:
            return False
    return True


def fingerprint_dist(S, Q, k_max=None):
    """Fingerprint metric sup_k |psi_k[S] - psi_k[Q]|_inf / (k+1)^(2/3)."""
    if k_max is None:
        k_max = 2 * max(S.m, Q.m)
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    best = 0.0
    for k in range(k_max + 1):
        f, h = psi(S, k), psi(Q, k)
        ts = _compare_grid(f, h)
        best = max(best, float(np.abs(f(ts) - h(ts)).max()) / (k + 1) ** (2.0 / 3.0))
    return best
