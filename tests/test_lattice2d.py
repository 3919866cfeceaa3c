"""Complete 2D-lattice classification: reduction, invariants, metrics,
chiral distances, spherical map and inverse design."""

from __future__ import annotations

import math

import numpy as np
import pytest

from geoinv.lattice2d import (
    Basis2D,
    ObtuseSuperbase2D,
    ProjectedInvariant2D,
    RootInvariant2D,
    chiral,
    inverse_design,
    pm,
    projected_invariant,
    reduce_basis,
    rm,
    root_invariant,
    slm,
    superbase_from_root_invariant,
)
from geoinv.numcore import INF

S2 = math.sqrt(2)

RI_TRIPLES = [(0, 1, 1), (1, 1, 1), (1, 1, 4), (1, 4, 7)]
RM_INF = [[0, 1, 3, 6], [1, 0, 3, 6], [3, 3, 0, 3], [6, 6, 3, 0]]
PM_INF = [
    [0, 1, 0.5, 0.25],
    [1, 0, 0.5, 0.75],
    [0.5, 0.5, 0, 0.25],
    [0.25, 0.75, 0.25, 0],
]


def _ris():
    out = []
    for trip, sign in zip(RI_TRIPLES, (0, 0, 0, 1)):
        sb = superbase_from_root_invariant(RootInvariant2D(*map(float, trip), sign))
        out.append(root_invariant(sb))
    return out


def test_root_invariant_golden_triples():
    for trip, ri in zip(RI_TRIPLES, _ris()):
        assert ri.triple() == pytest.approx(list(map(float, trip)), abs=1e-9)


def test_square_lattice_invariant():
    ri = root_invariant(reduce_basis(Basis2D(np.array([1.0, 0.0]), np.array([0.0, 1.0]))))
    assert ri.triple() == pytest.approx([0, 1, 1], abs=1e-9)
    assert ri.sign == 0
    pi = projected_invariant(ri)
    assert (pi.x, pi.y) == pytest.approx((0, 0), abs=1e-9)


def test_hexagonal_lattice_invariant():
    basis = Basis2D(np.array([1.0, 0.0]), np.array([0.5, math.sqrt(3) / 2]))
    ri = root_invariant(reduce_basis(basis))
    r = ri.triple()
    assert r[0] == pytest.approx(r[1], abs=1e-9)
    assert r[1] == pytest.approx(r[2], abs=1e-9)
    pi = projected_invariant(ri)
    assert (pi.x, pi.y) == pytest.approx((0, 1), abs=1e-9)


def test_rm_inf_table():
    ris = _ris()
    for i, a in enumerate(ris):
        for j, b in enumerate(ris):
            assert rm(a, b, INF) == pytest.approx(RM_INF[i][j], abs=1e-9)


def test_pm_inf_table():
    pis = [projected_invariant(r) for r in _ris()]
    for i, a in enumerate(pis):
        for j, b in enumerate(pis):
            assert pm(a, b, INF) == pytest.approx(PM_INF[i][j], abs=1e-9)


# chiral distances for Lambda_inf (RI (1,4,7)) and Lambda_2
# (RI (2-sqrt2, 2sqrt2-1, 5-sqrt2)); two table entries recomputed from the
# closed forms (ledgered): PC_inf[D2](L2) = (sqrt2-1)/2 and
# RC_2[D6](L2) = sqrt(30-18*sqrt2)
CHIRAL_CASES = [
    ("pi_inf", "D2", 2, 0.25),
    ("pi_inf", "D4", 2, S2 / 4),
    ("pi_inf", "D6", 2, math.sqrt(10) / 4),
    ("pi_inf", "D2", INF, 0.25),
    ("pi_inf", "D4", INF, 0.25),
    ("pi_inf", "D6", INF, 0.75),
    ("ri_inf", "D2", 2, 1.0),
    ("ri_inf", "D4", 2, math.sqrt(13) / 2),
    ("ri_inf", "D6", 2, 3 * S2),
    ("ri_inf", "D2", INF, 1.0),
    ("ri_inf", "D4", INF, 1.0),
    ("ri_inf", "D6", INF, 3.0),
    ("pi_2", "D2", 2, 1 / (2 + S2)),
    ("pi_2", "D4", 2, S2 - 1),
    ("pi_2", "D6", 2, math.sqrt(2 - S2)),
    ("pi_2", "D2", INF, (S2 - 1) / 2),
    ("pi_2", "D4", INF, 1 / (2 + S2)),
    ("pi_2", "D6", INF, 1 / S2),
    ("ri_2", "D2", 2, 2 - S2),
    ("ri_2", "D4", 2, (2 - S2) * math.sqrt(13) / 2),
    ("ri_2", "D6", 2, math.sqrt(30 - 18 * S2)),
    ("ri_2", "D2", INF, 2 - S2),
    ("ri_2", "D4", INF, 2 - S2),
    ("ri_2", "D6", INF, 1.5),
]


def _chiral_invariants():
    ri_inf = RootInvariant2D(1.0, 4.0, 7.0, 1)
    ri_2 = RootInvariant2D(2 - S2, 2 * S2 - 1, 5 - S2, 1)
    return {
        "ri_inf": ri_inf,
        "ri_2": ri_2,
        "pi_inf": projected_invariant(ri_inf),
        "pi_2": projected_invariant(ri_2),
    }


@pytest.mark.parametrize("key,group,q,expected", CHIRAL_CASES)
def test_chiral_table(key, group, q, expected):
    invs = _chiral_invariants()
    assert chiral(invs[key], group, q) == pytest.approx(expected, abs=1e-9)


def test_oriented_tables():
    ri_ip = RootInvariant2D(1.0, 4.0, 7.0, 1)
    ri_im = RootInvariant2D(1.0, 4.0, 7.0, -1)
    ri_2p = RootInvariant2D(2 - S2, 2 * S2 - 1, 5 - S2, 1)
    ri_2m = RootInvariant2D(2 - S2, 2 * S2 - 1, 5 - S2, -1)
    ris = [ri_ip, ri_im, ri_2p, ri_2m]
    pis = [projected_invariant(r) for r in ris]

    ms2 = 0.75 * S2 - 1
    mo2 = math.sqrt(25 - 16 * S2) / (2 * S2)
    pm2 = [
        [0, 0.5, ms2, mo2],
        [0.5, 0, mo2, ms2],
        [ms2, mo2, 0, 2 - S2],
        [mo2, ms2, 2 - S2, 0],
    ]
    msi, moi = 0.75 - 1 / S2, 1.25 - 1 / S2
    pmi = [
        [0, 0.5, msi, moi],
        [0.5, 0, moi, msi],
        [msi, moi, 0, 2 - S2],
        [moi, msi, 2 - S2, 0],
    ]
    Ms2, Mo2 = math.sqrt(6 * (7 - 3 * S2)), math.sqrt(50 - 22 * S2)
    rm2 = [
        [0, 2, Ms2, Mo2],
        [2, 0, Mo2, Ms2],
        [Ms2, Mo2, 0, 2 * (2 - S2)],
        [Mo2, Ms2, 2 * (2 - S2), 0],
    ]
    Msi, Moi = 2 + S2, 3.0
    rmi = [
        [0, 2, Msi, Moi],
        [2, 0, Moi, Msi],
        [Msi, Moi, 0, 2 * (2 - S2)],
        [Moi, Msi, 2 * (2 - S2), 0],
    ]
    for i in range(4):
        for j in range(4):
            assert pm(pis[i], pis[j], 2, oriented=True) == pytest.approx(
                pm2[i][j], abs=1e-9
            )
            assert pm(pis[i], pis[j], INF, oriented=True) == pytest.approx(
                pmi[i][j], abs=1e-9
            )
            assert rm(ris[i], ris[j], 2, oriented=True) == pytest.approx(
                rm2[i][j], abs=1e-9
            )
            assert rm(ris[i], ris[j], INF, oriented=True) == pytest.approx(
                rmi[i][j], abs=1e-9
            )


def test_mirror_pairs_equal_twice_chiral():
    # oriented distance between a lattice and its mirror = 2 * D2 chiral
    ri_p = RootInvariant2D(1.0, 4.0, 7.0, 1)
    ri_m = RootInvariant2D(1.0, 4.0, 7.0, -1)
    for q in (2, INF):
        assert rm(ri_p, ri_m, q, oriented=True) == pytest.approx(
            2 * chiral(ri_p, "D2", q), abs=1e-9
        )
        pi_p, pi_m = projected_invariant(ri_p), projected_invariant(ri_m)
        assert pm(pi_p, pi_m, q, oriented=True) == pytest.approx(
            2 * chiral(pi_p, "D2", q), abs=1e-9
        )


def test_slm_longitudes():
    cases = [
        ((0.0, 0.0), 67.5),
        ((0.0, 1.0), -45.0),
        ((1 - 1 / S2, 0.0), 112.5),
        ((0.5, 0.5), -112.5),
        ((0.0, S2 - 1), 0.0),
    ]
    for (x, y), mu in cases:
        lat, lon = slm(ProjectedInvariant2D(x, y, 1))
        assert lon == pytest.approx(mu, abs=1e-9)


def test_slm_pole_has_no_longitude():
    t = 1 - 1 / S2
    lat, lon = slm(ProjectedInvariant2D(t, t, 1))
    assert lon is None
    assert lat == pytest.approx(90.0, abs=1e-9)


def test_inverse_design_round_trip(rng):
    for _ in range(200):
        x = rng.uniform(0.01, 0.45)
        y = rng.uniform(0.01, 0.9)
        if x + y >= 0.98:
            continue
        size = rng.uniform(0.5, 5.0)
        sign = int(rng.choice([-1, 1]))
        sb = inverse_design(x, y, size, sign)
        ri = root_invariant(sb)
        pi = projected_invariant(ri)
        assert pi.x == pytest.approx(x, abs=1e-9)
        assert pi.y == pytest.approx(y, abs=1e-9)
        assert ri.size == pytest.approx(size, abs=1e-9)
        assert ri.sign == sign


def test_reduction_random_bases_match_invariant(rng):
    # an SL(2,Z) change of basis never changes the root invariant
    for _ in range(50):
        b = rng.normal(size=(2, 2))
        while abs(np.linalg.det(b)) < 0.1:
            b = rng.normal(size=(2, 2))
        ri = root_invariant(reduce_basis(Basis2D(b[0], b[1])))
        u = np.array([[1, int(rng.integers(-3, 4))], [0, 1]])
        v = np.array([[1, 0], [int(rng.integers(-3, 4)), 1]])
        m = (u @ v) @ b
        ri2 = root_invariant(reduce_basis(Basis2D(m[0], m[1])))
        assert ri.triple() == pytest.approx(ri2.triple(), abs=1e-9)
        assert ri.sign == ri2.sign


def _dot_conorm(v, i, j):
    """``ObtuseSuperbase2D.conorm`` before the float rewrite."""
    return float(-np.dot(v[i], v[j]))


def _dot_reduce_basis(basis):
    """Verbatim copy of ``reduce_basis`` on numpy 2-vectors (``np.dot``),
    with its superbase checks inlined; the oracle for the float version."""
    v1, v2 = basis.v1.copy(), basis.v2.copy()
    if np.dot(v1, v1) > np.dot(v2, v2):
        v1, v2 = v2, v1
    for _ in range(10000):
        x = round(np.dot(v1, v2) / np.dot(v1, v1))
        v2 = v2 - x * v1
        if np.dot(v2, v2) >= np.dot(v1, v1):
            break
        v1, v2 = v2, v1
    else:  # pragma: no cover - Gauss reduction always terminates
        raise RuntimeError("basis reduction did not terminate")
    if np.dot(v1, v2) > 0:
        v2 = -v2
    v0 = -v1 - v2
    v = np.array([v0, v1, v2])
    tol = 1e-9 * max(np.dot(u, u) for u in v)
    assert all(_dot_conorm(v, i, j) >= -tol for i, j in ((1, 2), (0, 1), (0, 2)))
    return v


def _dot_root_invariant(v):
    """Verbatim copy of ``root_invariant`` on the (3, 2) superbase array,
    returning (r12, r01, r02, sign)."""
    pairs = [(1, 2), (0, 1), (0, 2)]
    conorms = [max(_dot_conorm(v, i, j), 0.0) for i, j in pairs]
    order = np.argsort(conorms, kind="stable")
    sorted_pairs = [pairs[i] for i in order]
    p12, p01, p02 = (conorms[i] for i in order)
    r12, r01, r02 = math.sqrt(p12), math.sqrt(p01), math.sqrt(p02)
    small, middle = set(sorted_pairs[0]), set(sorted_pairs[1])
    shared = small & middle
    i1 = shared.pop() if shared else sorted_pairs[0][0]
    i2 = (small - {i1}).pop()
    det = v[i1][0] * v[i2][1] - v[i1][1] * v[i2][0]
    scale = max(r02, 1e-300)
    if (
        r12 <= 1e-9 * scale
        or abs(r01 - r12) <= 1e-9 * max(r01, scale)
        or abs(r02 - r01) <= 1e-9 * max(r02, scale)
    ):
        sign = 0
    else:
        sign = 1 if det > 0 else -1
    return r12, r01, r02, sign


def _oracle_bases():
    rng = np.random.default_rng(10)
    named = [
        ((1.0, 0.0), (0.0, 1.0)),  # square
        ((1.0, 0.0), (0.5, math.sqrt(3) / 2)),  # hexagonal
        ((2.0, 0.0), (0.0, 3.0)),  # rectangular
        ((1.0, 0.0), (1e6 + 0.5, 1e-3)),  # a long Gauss reduction
    ]
    return named + [tuple(b) for b in rng.normal(size=(10000, 2, 2))]


def test_float_reduction_matches_the_dot_product_oracle():
    signs = []
    for v1, v2 in _oracle_bases():
        try:
            basis = Basis2D(v1, v2)
        except ValueError:
            continue
        sb = reduce_basis(basis)
        want = _dot_reduce_basis(basis)
        assert np.abs(sb.vectors() - want).max() <= 1e-12 * np.abs(want).max()
        tol = 1e-12 * (want**2).sum(axis=1).max()
        assert min(sb.conorm(i, j) for i, j in ((1, 2), (0, 1), (0, 2))) >= -tol
        ri, (r12, r01, r02, sign) = root_invariant(sb), _dot_root_invariant(want)
        assert np.abs(ri.triple() - [r12, r01, r02]).max() <= 1e-12
        assert ri.sign == sign
        signs.append(sign)
    assert signs[:3] == [0, 0, 0] and len(signs) > 9900
    assert {-1, 1} <= set(signs[3:])


def test_conorm_of_a_superbase():
    sb = ObtuseSuperbase2D(np.array([-1.0, -1.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert [sb.conorm(i, j) for i, j in ((1, 2), (0, 1), (0, 2))] == [0.0, 1.0, 1.0]
    assert isinstance(sb.conorm(0, 1), float)


@pytest.mark.parametrize(
    "v1, v2, message",
    [
        ((math.nan, 0.0), (0.0, 1.0), "non-finite basis"),
        ((1.0, 0.0), (math.inf, 1.0), "non-finite basis"),
        ((1e160, 0.0), (0.0, 1e160), "basis vector too long"),
        ((1e-170, 0.0), (0.0, 1e150), "basis vector too short"),
        ((1.0, 0.0), (2.0, 0.0), "degenerate basis"),
        ((0.0, 0.0), (0.0, 1.0), "degenerate basis"),
        ((1.0, 0.0, 0.0), (0.0, 1.0), "two vectors of 2 numbers"),
    ],
)
def test_bad_bases_rejected(v1, v2, message):
    with pytest.raises(ValueError, match=message):
        Basis2D(v1, v2)


@pytest.mark.parametrize("q", [2.0, INF, 1.0])
@pytest.mark.parametrize("group", ["D3", "C2", ""])
def test_chiral_names_an_unknown_group(group, q):
    # the root form reported "q in {2, inf} only" for any unknown group
    ri = RootInvariant2D(1, 2, 3, 1)
    for inv in (ri, projected_invariant(ri)):
        with pytest.raises(ValueError, match=f"unknown chiral group {group}: expected D2, D4 or D6"):
            chiral(inv, group, q)


def test_extreme_bases_in_range_reduce():
    for scale in (1e-140, 1e150):
        ri = root_invariant(Basis2D((scale, 0.0), (0.0, scale)))
        assert ri.triple() == pytest.approx([0.0, scale, scale], rel=1e-12)
        assert ri.sign == 0


@pytest.mark.parametrize("size", [math.inf, math.nan, 0.0, -1.0])
def test_inverse_design_rejects_bad_sizes(size):
    with pytest.raises(ValueError, match="size must be positive and finite"):
        inverse_design(0.2, 0.3, size)


def test_inverse_design_overflow_is_a_value_error():
    with pytest.raises(ValueError, match="root invariant too large"):
        inverse_design(0.2, 0.3, 1e300)
