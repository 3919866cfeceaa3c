"""Complete continuous classification of 2D lattices.

Obtuse-superbase reduction, root and projected invariants (with orientation
sign), plain and oriented metrics, chiral distances to higher-symmetry
families, the spherical lattice map and inverse design from invariants.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .numcore import INF, lq_norm, norm_exponent

#: relative tolerance used by the sign-0 boundary test
SIGN_TOL = 1e-9
#: squared basis lengths for which no product in the reduction overflows or
#: underflows: a basis that passes the degeneracy test has no lattice vector
#: shorter than 1e-12 times its shorter vector
NORM2_RANGE = (1e24 * sys.float_info.min, sys.float_info.max / 8)


@dataclass(frozen=True)
class Basis2D:
    """Two linearly independent vectors spanning a lattice in R^2."""

    v1: np.ndarray
    v2: np.ndarray

    def __post_init__(self):
        v1 = np.asarray(self.v1, dtype=float)
        v2 = np.asarray(self.v2, dtype=float)
        if v1.shape != (2,) or v2.shape != (2,):
            raise ValueError("a 2D basis is two vectors of 2 numbers")
        (x1, y1), (x2, y2) = v1.tolist(), v2.tolist()
        if not all(map(math.isfinite, (x1, y1, x2, y2))):
            raise ValueError("non-finite basis")
        n1, n2 = x1 * x1 + y1 * y1, x2 * x2 + y2 * y2
        lo, hi = NORM2_RANGE
        if not max(n1, n2) <= hi:
            raise ValueError(f"basis vector too long: squared length above {hi:.3g}")
        if abs(x1 * y2 - y1 * x2) <= 1e-12 * math.sqrt(n1) * math.sqrt(n2):
            raise ValueError("degenerate basis")
        if min(n1, n2) < lo:
            raise ValueError(f"basis vector too short: squared length below {lo:.3g}")
        object.__setattr__(self, "v1", v1)
        object.__setattr__(self, "v2", v2)


@dataclass(frozen=True)
class ObtuseSuperbase2D:
    """Vectors v0 + v1 + v2 = 0 with all conorms -v_i . v_j >= 0."""

    v0: np.ndarray
    v1: np.ndarray
    v2: np.ndarray

    def vectors(self):
        return np.array([self.v0, self.v1, self.v2])

    def conorm(self, i, j):
        v = _floats(self)
        return -(v[i][0] * v[j][0] + v[i][1] * v[j][1])


def _floats(sb):
    """The superbase vectors as three (x, y) pairs of Python floats."""
    return sb.v0.tolist(), sb.v1.tolist(), sb.v2.tolist()


@dataclass(frozen=True)
class RootInvariant2D:
    """Ordered root products (r12 <= r01 <= r02) plus orientation sign."""

    r12: float
    r01: float
    r02: float
    sign: int

    def triple(self):
        return np.array([self.r12, self.r01, self.r02])

    @property
    def size(self):
        return self.r12 + self.r01 + self.r02


@dataclass(frozen=True)
class ProjectedInvariant2D:
    """Point of the quotient triangle (x, y >= 0, x + y <= 1) plus sign."""

    x: float
    y: float
    sign: int

    def pair(self):
        return np.array([self.x, self.y])


def reduce_basis(basis):
    """Reduce a basis to an obtuse superbase (all conorms non-negative).

    Lagrange-Gauss reduction (|v1| <= |v2| <= |v1 +- v2|), then the sign of
    v2 is chosen so that v1 . v2 <= 0 and v0 = -v1 - v2 closes the triple.
    The arithmetic runs on Python floats.
    """
    if not isinstance(basis, Basis2D):
        basis = Basis2D(*basis)
    (x1, y1), (x2, y2) = basis.v1.tolist(), basis.v2.tolist()
    n1, n2 = x1 * x1 + y1 * y1, x2 * x2 + y2 * y2
    if n1 > n2:
        x1, y1, x2, y2, n1 = x2, y2, x1, y1, n2
    for _ in range(10000):
        k = round((x1 * x2 + y1 * y2) / n1)
        x2, y2 = x2 - k * x1, y2 - k * y1
        n2 = x2 * x2 + y2 * y2
        if n2 >= n1:
            break
        x1, y1, x2, y2, n1 = x2, y2, x1, y1, n2
    else:  # pragma: no cover - Gauss reduction always terminates
        raise RuntimeError("basis reduction did not terminate")
    if x1 * x2 + y1 * y2 > 0:
        x2, y2 = -x2, -y2
    return ObtuseSuperbase2D(*np.array([[-x1 - x2, -y1 - y2], [x1, y1], [x2, y2]]))


#: the conorm pairs (i, j) in the order whose ties the stable sort keeps
_PAIRS = ((1, 2), (0, 1), (0, 2))


def root_invariant(sb):
    """Root invariant: sorted square roots of conorms with orientation sign.

    The superbase is labelled so that the conorms satisfy p12 <= p01 <= p02;
    the sign is that of det(v1, v2) under this labelling, set to 0 exactly
    for mirror-symmetric lattices (boundary of the ordered cone).
    """
    if isinstance(sb, (Basis2D, tuple, list, np.ndarray)):
        sb = reduce_basis(sb)
    (x0, y0), (x1, y1), (x2, y2) = v = _floats(sb)
    conorms = [
        0.0 if 0.0 > p else p  # max(p, 0.0)
        for p in (-(x1 * x2 + y1 * y2), -(x0 * x1 + y0 * y1), -(x0 * x2 + y0 * y2))
    ]
    order = sorted(range(3), key=conorms.__getitem__)
    r12, r01, r02 = [math.sqrt(conorms[k]) for k in order]

    # labelling: v1 is shared by the two smallest-conorm pairs, v2 the other
    # vector of the smallest pair
    (a, b), middle = _PAIRS[order[0]], _PAIRS[order[1]]
    i1 = a if a in middle else b
    i2 = b if i1 == a else a
    det = v[i1][0] * v[i2][1] - v[i1][1] * v[i2][0]

    # r12 <= r01 <= r02, so every gap is measured against r02
    if min(r12, r01 - r12, r02 - r01) <= SIGN_TOL * max(r02, 1e-300):
        sign = 0
    else:
        sign = 1 if det > 0 else -1
    return RootInvariant2D(r12, r01, r02, sign)


def projected_invariant(ri):
    """Projected invariant (x, y) in the quotient triangle with the sign."""
    s = ri.size
    if s <= 0:
        raise ValueError("zero-size invariant")
    x = (ri.r02 - ri.r01) / s
    y = 3.0 * ri.r12 / s
    return ProjectedInvariant2D(float(x), float(y), ri.sign)


def _ms(a, b, c, d):
    return max(abs(a - b), abs(c - d), 0.5 * abs(a + b - c - d))


def rm(a, b, q=2.0, oriented=False):
    """Root metric between two root invariants; oriented uses closed forms."""
    qn = norm_exponent(q)
    r, s = a.triple(), b.triple()
    if not oriented or a.sign * b.sign >= 0:
        return lq_norm(r - s, qn)
    if qn == 2.0:
        refl = np.array(
            [
                [-s[0], s[1], s[2]],
                [s[1], s[0], s[2]],
                [s[0], s[2], s[1]],
            ]
        )
        return float(np.sqrt(((refl - r) ** 2).sum(axis=1)).min())
    if qn is INF:
        d0 = max(r[0] + s[0], abs(r[1] - s[1]), abs(r[2] - s[2]))
        d1 = max(_ms(r[0], r[1], s[0], s[1]), abs(r[2] - s[2]))
        d2 = max(abs(r[0] - s[0]), _ms(r[1], r[2], s[1], s[2]))
        return float(min(d0, d1, d2))
    raise ValueError("oriented root metric supports q in {2, inf} only")


def pm(a, b, q=2.0, oriented=False):
    """Projected metric between two projected invariants."""
    qn = norm_exponent(q)
    p1, p2 = a.pair(), b.pair()
    if not oriented or a.sign * b.sign >= 0:
        return lq_norm(p1 - p2, qn)
    if qn == 2.0:
        refl = np.array(
            [
                [-p2[0], p2[1]],
                [p2[0], -p2[1]],
                [1.0 - p2[1], 1.0 - p2[0]],
            ]
        )
        return float(np.sqrt(((refl - p1) ** 2).sum(axis=1)).min())
    if qn is INF:
        (x1, y1), (x2, y2) = sorted([tuple(p1), tuple(p2)])
        dx = max(x2 - x1, y2 + y1)
        dy = max(x2 + x1, abs(y2 - y1))
        dxy = max(x2 - x1, 1.0 - x2 - y2 + abs(1.0 - y1 - x2))
        return float(min(dx, dy, dxy))
    raise ValueError("oriented projected metric supports q in {2, inf} only")


def chiral(inv, group, q=2.0):
    """Chiral distance of a lattice invariant to a higher-symmetry family.

    ``group`` is one of 'D2', 'D4', 'D6'; the space (root or projected) is
    inferred from the invariant type.  Closed forms exist for q in {2, inf}.
    """
    qn = norm_exponent(q)
    group = group.upper()
    if group not in ("D2", "D4", "D6"):
        raise ValueError(f"unknown chiral group {group}: expected D2, D4 or D6")
    if isinstance(inv, RootInvariant2D):
        r12, r01, r02 = inv.r12, inv.r01, inv.r02
        if qn == 2.0:
            if group == "D2":
                return min(r12, (r01 - r12) / math.sqrt(2), (r02 - r01) / math.sqrt(2))
            if group == "D4":
                return math.sqrt(r12**2 + 0.25 * (r02 - r01) ** 2)
            if group == "D6":
                return math.sqrt(
                    (2.0 / 3.0)
                    * (
                        r12**2
                        + r01**2
                        + r02**2
                        - r12 * r01
                        - r12 * r02
                        - r01 * r02
                    )
                )
        if qn is INF:
            if group == "D2":
                return min(r12, (r01 - r12) / 2.0, (r02 - r01) / 2.0)
            if group == "D4":
                return min(r12, (r02 - r01) / 2.0)
            if group == "D6":
                return (r02 - r12) / 2.0
        raise ValueError("chiral distances support q in {2, inf} only")
    if isinstance(inv, ProjectedInvariant2D):
        x, y = inv.x, inv.y
        if group == "D2":
            if qn == 2.0:
                return min(x, y, (1.0 - x - y) / math.sqrt(2))
            if qn is INF:
                return min(x, y, (1.0 - x - y) / 2.0)
            raise ValueError("projected D2 chiral distance needs q in {2, inf}")
        if group == "D4":
            return x if qn is INF else lq_norm([x, y], qn)
        if group == "D6":
            return 1.0 - y if qn is INF else lq_norm([x, 1.0 - y], qn)
    raise ValueError(f"unsupported invariant/group combination ({group})")


#: incentre of the quotient triangle = the poles of the spherical map
POLE = 1.0 - 1.0 / math.sqrt(2.0)


def slm(pi):
    """Spherical lattice map: (latitude, longitude) in degrees.

    The longitude is undefined (None) at the poles, which are the incentres
    (t, t) with t = 1 - 1/sqrt(2); the cut longitude +180 is taken on the
    segment toward (1, 0).
    """
    t = POLE
    x, y = pi.x, pi.y
    if abs(x - t) <= 1e-12 and abs(y - t) <= 1e-12:
        return (90.0 * pi.sign, None)
    if x == t:
        psi = math.copysign(90.0, y - t)
    else:
        psi = math.degrees(math.atan((y - t) / (x - t)))
    if x < t:
        mu = psi + 22.5
    elif psi >= -22.5:
        mu = psi - 157.5
    else:
        mu = psi + 202.5
    if mu <= -180.0:
        mu += 360.0
    if -45.0 <= mu <= 67.5:
        phi = 90.0 * x * math.sqrt(2) / (math.sqrt(2) - 1.0)
    elif mu >= 67.5:
        phi = 90.0 * y * math.sqrt(2) / (math.sqrt(2) - 1.0)
    else:
        phi = 90.0 * (1.0 - x - y) / (math.sqrt(2) - 1.0)
    return (float(phi * pi.sign), float(mu))


def superbase_from_root_invariant(ri):
    """Reconstruct a reduced basis realizing a root invariant.

    |v1| = sqrt(r12^2 + r01^2), |v2| = sqrt(r12^2 + r02^2) and the angle
    between them satisfies cos = -r12^2 / (|v1| |v2|); the orientation of v2
    follows the invariant's sign (counter-clockwise for sign >= 0).
    """
    try:
        n1 = math.sqrt(ri.r12**2 + ri.r01**2)
        n2 = math.sqrt(ri.r12**2 + ri.r02**2)
    except OverflowError:  # float ** raises where * would give inf
        n1 = n2 = math.inf
    if n1 <= 0 or n2 <= 0:
        raise ValueError("degenerate root invariant")
    if not (n1 < math.inf and n2 < math.inf):
        raise ValueError("root invariant too large: its basis lengths overflow")
    cos = -(ri.r12**2) / (n1 * n2)
    sin = math.sqrt(max(1.0 - cos * cos, 0.0))
    if ri.sign < 0:
        sin = -sin
    v1 = np.array([n1, 0.0])
    v2 = np.array([n2 * cos, n2 * sin])
    return Basis2D(v1, v2)


def inverse_design(x, y, size, sign=1):
    """Unique lattice (up to isometry) with projected invariant (x, y),
    root-invariant size ``size`` and the requested orientation sign."""
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0 and x + y <= 1.0 + 1e-12):
        raise ValueError("(x, y) must lie in the quotient triangle")
    if not 0 < size < math.inf:
        raise ValueError("size must be positive and finite")
    r12 = size * y / 3.0
    r01 = size * (3.0 - 3.0 * x - y) / 6.0
    r02 = size * (3.0 + 3.0 * x - y) / 6.0
    ri = RootInvariant2D(r12, r01, r02, int(np.sign(sign)))
    return superbase_from_root_invariant(ri)

