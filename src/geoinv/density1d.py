"""Analytic density functions psi_k of 1-periodic sequences in R.

psi_k(t) is the fraction of the period covered by exactly k intervals when
every point (or interval) is thickened by radius t.  Point sequences are the
zero-radius special case of disjoint-interval sequences.

Every psi_k is a constant plus a sum of slope hinges w (t - x)_+, with
slopes +2, -4, +2 (per unit period) at half the distances from each
interval to the intervals k-1, k and k+1 places on.  The slopes sum to 0,
so psi_k is constant after its last breakpoint, and the difference of two
such functions is linear between the breakpoints of both: its sup is
attained at one of them.  ``fingerprint_dist`` and ``fingerprint_equal``
sort the hinges of all k at once and read that sup off cumulative sums,
without building any ``psi``; the integer slope units of each sequence are
summed apart, so equal fingerprints differ by exactly 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numcore import _as_index, _real, _rows

#: corner points closer than this on the t-axis are merged
CORNER_TOL = 1e-12

#: most hinge distances (k_hi + 2) * m of one sequence in ``_hinges``; a
#: comparison of two sequences at the budget peaks at about 340 MiB
HINGE_BUDGET = 2**20


@dataclass(frozen=True)
class PeriodicSequence1D:
    """Periodic sequence of disjoint intervals [c_i - r_i, c_i + r_i] mod period."""

    period: float
    centres: np.ndarray
    radii: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(self, "period", _real(self.period, "period", positive=True))
        centres = np.asarray(self.centres, dtype=float)
        if centres.ndim != 1 or len(centres) == 0:
            raise ValueError("centres must be a non-empty 1-D array")
        radii = (
            np.zeros_like(centres)
            if self.radii is None
            else np.asarray(self.radii, dtype=float)
        )
        if radii.shape != centres.shape:
            raise ValueError("radii do not match centres")
        if not (np.isfinite(centres).all() and np.isfinite(radii).all()):
            raise ValueError("centres and radii must be finite")
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
        c = _rows(self.corners, "corners", 2)
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
    """Drop duplicated abscissae and collinear interior corners.

    Abscissae within ``CORNER_TOL`` of their predecessor join its group,
    which keeps its first abscissa and last ordinate.
    """
    first = np.concatenate([[True], np.diff(xs) > CORNER_TOL])
    x, y = xs[first], ys[np.concatenate([first[1:], [True]])]
    keep = np.ones(len(x), dtype=bool)
    chord = y[:-2] + (y[2:] - y[:-2]) * (x[1:-1] - x[:-2]) / (x[2:] - x[:-2])
    keep[1:-1] = np.abs(chord - y[1:-1]) > 1e-12
    return x[keep], y[keep]


def _hinges(S, k_lo, k_hi):
    """Hinges of psi_k of S on the period-1 t-axis for k = k_lo..k_hi.

    Returns c (K,), x (K, 3m) >= 0 and w (3m,) with psi_k(t) = c_k +
    sum_j w_j (t - x_kj)_+ for t >= 0.  Let d_k(i) be half the distance
    from the right end of interval i to the left end of interval i+k on the
    unwrapped line.  The closed-form trapezium of interval i (Anosova &
    Kurlin) has the hinges +2 at d_(k-1)(i), -2 at d_k(i-1) and at d_k(i),
    +2 at d_(k+1)(i-1); summed over i, psi_k has +2 at d_(k-1)(i), -4 at
    d_k(i) and +2 at d_(k+1)(i).  For k = 0, 1 some of them fall at t < 0,
    where they add up to a constant: 1 - 2 sum r_i for k = 0 and 2 sum r_i
    for k = 1.  Raises ValueError before building any array when
    (k_hi + 2) * m passes HINGE_BUDGET.
    """
    p, m = S.period, S.m
    if (int(k_hi) + 2) * m > HINGE_BUDGET:
        raise ValueError(f"k={k_hi} with {m} intervals is over the hinge budget of {HINGE_BUDGET}")
    i = np.arange(m)
    n = np.arange(k_lo - 1, k_hi + 2)[:, None] + i
    d = ((S.centres - S.radii)[n % m] / p - (S.centres + S.radii) / p + n // m) / 2.0
    x = np.concatenate([d[:-2], d[1:-1], d[2:]], axis=1)
    w = np.repeat([2.0, -4.0, 2.0], m)
    c = (w * np.maximum(-x, 0.0)).sum(axis=1)
    return c, np.maximum(x, 0.0), w


def _values(c, x, w, periods):
    """Sort each hinge row; return the breakpoints and the function there.

    Each row of ``w`` holds one side's integer slope units (0 elsewhere), summed
    exactly and divided by that side's period once, so equal hinges cancel.
    """
    order = np.argsort(x, axis=1)
    x = np.take_along_axis(x, order, axis=1)
    slope = sum(np.cumsum(u[order][:, :-1], axis=1) / p for u, p in zip(w, periods))
    rise = slope * np.diff(x, axis=1)
    v = np.concatenate([np.zeros((len(x), 1)), np.cumsum(rise, axis=1)], axis=1)
    return x, v + c[:, None]


def psi(S, k):
    """Exact density function psi_k as a PiecewiseLinear in the original scale.

    The corners are merged on the period-1 t-axis, then the t-axis is
    rescaled by the period.
    """
    k = _as_index(k, "k", 0)
    c, x, w = _hinges(S, k, k)
    x, v = _values(c, x, w[None], (1.0,))
    x, y = _merge_corners(np.concatenate([[0.0], x[0]]), np.concatenate([c, v[0]]))
    return PiecewiseLinear(np.column_stack([x * S.period, y]))


def rho(S, k):
    """Area under psi_k of the period-1 rescaled sequence.

    Closed forms for zero radii: (1/4) sum d_i^2 for k = 0 and
    (1/2) sum d_(i-1) d_(i+k-1) for k > 0, with d the inter-point gaps.
    """
    k = _as_index(k, "k", 0)
    if (S.radii > 0).any():
        raise ValueError("rho is defined for zero-radius sequences")
    d = _gaps(1.0, S.centres / S.period, S.radii / S.period)
    if k == 0:
        return float(0.25 * (d**2).sum())
    return float(0.5 * (np.roll(d, 1) * np.roll(d, 1 - k)).sum())


def _sup_diffs(S, Q, k_max):
    """sup_t |psi_k[S](t) - psi_k[Q](t)| for k = 0..k_max, exact up to rounding.

    The hinges of S and the negated hinges of Q, on the original t-axis,
    form one row per k; the difference is linear between the sorted
    breakpoints and constant after the last, so its sup is at a breakpoint.
    """
    k_max = _as_index(k_max, "k_max", 0)
    cs, xs, ws = _hinges(S, 0, k_max)
    cq, xq, wq = _hinges(Q, 0, k_max)
    x = np.concatenate([xs * S.period, xq * Q.period], axis=1)
    w = np.block([[ws, 0 * wq], [0 * ws, -wq]])
    return np.abs(_values(cs - cq, x, w, (S.period, Q.period))[1]).max(axis=1)


def fingerprint_equal(S, Q, k_max=None, tol=1e-9):
    """True iff the density fingerprints of two sequences coincide.

    For zero-radius sequences the periodicity psi_{k+m}(t + p/2) = psi_k(t)
    makes k = 0..max(m_S, m_Q) sufficient; with radii the comparison runs to
    ``k_max`` (default 2 * max motif size).
    """
    tol = _real(tol, "tol")
    zero_radii = not (S.radii > 0).any() and not (Q.radii > 0).any()
    if k_max is None:
        k_max = max(S.m, Q.m) if zero_radii else 2 * max(S.m, Q.m)
    return bool((_sup_diffs(S, Q, k_max) <= tol).all())


def fingerprint_dist(S, Q, k_max=None):
    """Fingerprint metric sup_k |psi_k[S] - psi_k[Q]|_inf / (k+1)^(2/3)."""
    if k_max is None:
        k_max = 2 * max(S.m, Q.m)
    sup = _sup_diffs(S, Q, k_max)
    return float((sup / (np.arange(len(sup)) + 1.0) ** (2.0 / 3.0)).max())
