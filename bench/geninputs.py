"""Seeded input generators for the four benchmark workloads.

Every generator takes a ``numpy.random.Generator`` and returns plain arrays
and dicts, so the program under test sees only the generated inputs.  The
same seed gives the same inputs.  Nothing here imports ``geoinv``: the
planted properties (families, decoys, displacement bounds) are built by
construction, not by asking the program.
"""

from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------- crystals

#: ``periodic dedup --threshold``: ADA filter and EMD(PDA) confirmation
THRESHOLD = 0.01
#: neighbour count used by every periodic call (``--k``)
K_PERIODIC = 100
N_FAMILIES = 84
FAMILY_SIZE = 3
#: families whose motif is made of dimers get one decoy each
N_DECOYS = 48
#: novelty queries come from one dimer family and one random-motif family of
#: middle size, the same for every seed, so a query's cost does not depend on it
QUERY_FAMILIES = (N_DECOYS // 2, (N_DECOYS + N_FAMILIES) // 2)
#: every family member lies within this displacement of the hidden base, so
#: within-family EMD(PDA) <= 4 * COPY_EPS = 0.006 < THRESHOLD
COPY_EPS = 0.0015
#: dimer bond length; every other distance in a dimer motif is >= DIMER_GAP
BOND = 1.0
DIMER_GAP = 1.5
#: a decoy stretches half its bonds and shrinks the other half by this, so
#: its first ADA column is unchanged while EMD(PDA) >= STRETCH - 2 * COPY_EPS
STRETCH = 0.02
#: minimum distance between atoms of a random (non-dimer) motif
ATOM_GAP = 1.2
MAX_ASPECT = 8.0
#: largest motif size times aspect ratio
ASPECT_BUDGET = 32.0

_SHIFTS = np.array(
    [(i, j, k) for i in (-1, 0, 1) for j in (-1, 0, 1) for k in (-1, 0, 1)], float
)


def cell_basis(a, b, c, alpha, beta, gamma):
    """Cartesian basis of a cell in the standard CIF setting (degrees)."""
    al, be, ga = (math.radians(v) for v in (alpha, beta, gamma))
    cx = c * math.cos(be)
    cy = c * (math.cos(al) - math.cos(be) * math.cos(ga)) / math.sin(ga)
    return np.array(
        [
            [a, 0.0, 0.0],
            [b * math.cos(ga), b * math.sin(ga), 0.0],
            [cx, cy, math.sqrt(c * c - cx * cx - cy * cy)],
        ]
    )


def stratified(rng, n, lo, hi):
    """n values in [lo, hi), one in each of n equal strata, shuffled, so
    every seed covers the range alike (used for displacement sizes)."""
    return lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n


def spread_sizes(n, lo, hi, log=False):
    """n integer sizes spread evenly over [lo, hi] (log-evenly if ``log``).

    The sizes are the same for every seed: a seed changes the geometry and
    the order of the ops, not how much work they are.
    """
    mids = (np.arange(n) + 0.5) / n
    if log:
        return np.rint(np.exp(math.log(lo) + mids * math.log((hi + 0.5) / lo))).astype(int)
    return np.floor(lo + mids * (hi + 1 - lo)).astype(int)


def _shape(i):
    """Three numbers in [0, 1) for family i, evenly spread and uncorrelated
    over the families (additive recurrences)."""
    return tuple((i * r) % 1.0 for r in (0.6180339887, 0.4142135624, 0.7320508076))


def _random_cell(rng, m, dmin, shape):
    """Cell with room for m atoms.  ``shape`` sets the aspect ratio, the
    middle length and the volume per atom; the aspect ratio reaches
    MAX_ASPECT only for small motifs, since neighbour search cost grows with
    both.  Only the angles and the axis order are random."""
    u_aspect, u_mid, u_vol = shape
    aspect = math.exp(u_aspect * math.log(min(MAX_ASPECT, ASPECT_BUDGET / m)))
    mid = 1.0 + u_mid * (aspect - 1.0)
    vol_per_atom = 14.0 + 8.0 * u_vol
    angles = rng.uniform(80.0, 100.0, size=3)
    lengths = np.array([1.0, mid, aspect])
    a = (m * vol_per_atom / lengths.prod()) ** (1.0 / 3.0)
    lengths = rng.permutation(lengths * max(a, 1.3 * dmin))
    return (*lengths, *angles)


def _clear(frac, others, basis, dmin):
    """True if point ``frac`` is at least dmin from every point in ``others``
    and from each of their lattice translates."""
    if not len(others):
        return True
    diff = np.asarray(others) - frac
    diff -= np.rint(diff)
    cart = (diff[:, None, :] + _SHIFTS[None, :, :]) @ basis
    return bool(np.sqrt((cart**2).sum(axis=2)).min() >= dmin)


def _far_images(diff, basis, dmin):
    """True if every translate of ``diff`` other than itself is >= dmin long."""
    cart = (diff + _SHIFTS[_SHIFTS.any(axis=1)]) @ basis
    return bool(np.sqrt((cart**2).sum(axis=1)).min() >= dmin)


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _random_motif(rng, m, shape):
    """(cell, fractional coordinates) with atoms >= ATOM_GAP apart."""
    while True:
        cell = _random_cell(rng, m, ATOM_GAP, shape)
        basis = cell_basis(*cell)
        frac = []
        for _ in range(200 * m):
            f = rng.uniform(0.0, 1.0, size=3)
            if _clear(f, frac, basis, ATOM_GAP):
                frac.append(f)
                if len(frac) == m:
                    return cell, np.array(frac)


def _dimer_motif(rng, n_dimers, shape):
    """(cell, fractional coordinates, bond axes) of a motif of dimers.

    Atoms 2i and 2i+1 form dimer i at distance BOND; every other distance,
    across translates too, is at least DIMER_GAP, so each atom's nearest
    neighbour is its partner.
    """
    m = 2 * n_dimers
    while True:
        cell = _random_cell(rng, m, DIMER_GAP, shape)
        basis = cell_basis(*cell)
        inv = np.linalg.inv(basis)
        frac, axes = [], []
        for _ in range(200 * m):
            centre = rng.uniform(0.0, 1.0, size=3) @ basis
            u = _unit(rng)
            f1 = (centre + 0.5 * BOND * u) @ inv
            f2 = (centre - 0.5 * BOND * u) @ inv
            if (
                _clear(f1, frac, basis, DIMER_GAP)
                and _clear(f2, frac, basis, DIMER_GAP)
                and _far_images(f2 - f1, basis, DIMER_GAP)
            ):
                frac += [f1, f2]
                axes.append(u)
                if len(frac) == m:
                    return cell, np.array(frac), np.array(axes)


def _displaced(rng, cart, eps):
    """Move every point by a random vector of norm at most eps."""
    dirs = rng.normal(size=cart.shape)
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return cart + dirs * rng.uniform(0.0, eps, size=(len(cart), 1))


def crystal_corpus(rng):
    """P1 crystals for ``periodic dedup`` and ``periodic novelty``.

    Returns a dict with ``files`` (name -> (cell, fractional coords)),
    ``planted`` (the within-family pairs dedup must report), ``decoys``,
    ``queries`` (name -> (cell, frac, source file)) and the motif sizes.
    Families are near-copies of a hidden base; a decoy keeps the base's
    cell and first ADA column but has EMD(PDA) above the threshold.
    """
    names = [f"c{i:04d}" for i in rng.permutation(N_FAMILIES * FAMILY_SIZE + N_DECOYS)]
    files, planted, decoys, families = {}, [], [], []
    dimers = 2 * spread_sizes(N_DECOYS, 1, 6, log=True)
    sizes = spread_sizes(N_FAMILIES - N_DECOYS, 2, 24, log=True)
    for fam in range(N_FAMILIES):
        if fam < N_DECOYS:
            cell, frac, axes = _dimer_motif(rng, dimers[fam], _shape(fam))
        else:
            cell, frac = _random_motif(rng, sizes[fam - N_DECOYS], _shape(fam))
        basis = cell_basis(*cell)
        cart = frac @ basis
        inv = np.linalg.inv(basis)
        members = []
        for _ in range(FAMILY_SIZE):
            name = names.pop()
            files[name] = (cell, _displaced(rng, cart, COPY_EPS) @ inv)
            members.append(name)
        planted += [(a, b) for i, a in enumerate(members) for b in members[i + 1 :]]
        families.append(members)
        if fam < N_DECOYS:
            signs = rng.permutation(np.repeat([1.0, -1.0], len(axes) // 2))
            shift = 0.5 * STRETCH * signs[:, None] * axes
            stretched = cart.copy()
            stretched[0::2] += shift
            stretched[1::2] -= shift
            name = names.pop()
            files[name] = (cell, stretched @ inv)
            decoys.append(name)
    queries = {}
    for q, fam in enumerate(QUERY_FAMILIES):
        source = families[fam][int(rng.integers(FAMILY_SIZE))]
        cell, frac = files[source]
        moved = (frac + rng.uniform(0.0, 1.0, size=3)) % 1.0
        queries[f"query{q}"] = (cell, moved[rng.permutation(len(moved))], source)
    return {
        "files": files,
        "planted": sorted(tuple(sorted(p)) for p in planted),
        "decoys": decoys,
        "queries": queries,
        "sizes": [len(f) for _, f in files.values()],
    }


def cif_text(name, cell, frac):
    """P1 CIF text; coordinates are written with full float precision."""
    tags = ("length_a", "length_b", "length_c", "angle_alpha", "angle_beta", "angle_gamma")
    out = [f"data_{name}"]
    out += [f"_cell_{t} {v!r}" for t, v in zip(tags, map(float, cell))]
    out += [
        "_symmetry_space_group_name_H-M 'P 1'",
        "loop_",
        "_atom_site_label",
        "_atom_site_fract_x",
        "_atom_site_fract_y",
        "_atom_site_fract_z",
    ]
    out += [f"X{i + 1} {x!r} {y!r} {z!r}" for i, (x, y, z) in enumerate(frac.tolist())]
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------- clouds


def rotation(rng, n):
    """Random rotation matrix with determinant +1."""
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def perturbed_pair(rng, pts, eps):
    """(perturbed copy, the same copy rigidly moved, largest displacement)."""
    pert = _displaced(rng, pts, eps)
    moved = pert @ rotation(rng, pts.shape[1]).T + rng.normal(size=pts.shape[1])
    return pert, moved, float(np.linalg.norm(pert - pts, axis=1).max())


def _spread_points(rng, m, dim, gap):
    """m points in a box of unit density per point, pairwise >= gap apart."""
    side = m ** (1.0 / dim)
    pts = np.empty((m, dim))
    count = 0
    while count < m:
        p = rng.uniform(0.0, side, size=dim)
        if np.sqrt(((pts[:count] - p) ** 2).sum(axis=1)).min(initial=gap) >= gap:
            pts[count] = p
            count += 1
    return pts


N_CLOUD_OPS = 60
CLOUD_K = 10
LARGE_SHARE = 0.15


def cloud_ops(rng):
    """Pairs of clouds in R^3: 85% have 16-80 points, 15% have 120-160."""
    n_large = round(LARGE_SHARE * N_CLOUD_OPS)
    sizes = np.concatenate([
        spread_sizes(N_CLOUD_OPS - n_large, 16, 80),
        spread_sizes(n_large, 120, 160),
    ])
    ops = []
    for m, eps in zip(rng.permutation(sizes), stratified(rng, N_CLOUD_OPS, 1e-4, 1e-2)):
        pts = _spread_points(rng, m, 3, 0.05)
        pert, moved, eps = perturbed_pair(rng, pts, eps)
        ops.append({"points": pts, "perturbed": pert, "moved": moved, "eps": eps})
    return ops


# ---------------------------------------------------------------- simplexwise

#: (invariant, dimension, sizes, mode) and how many ops of each
SIMPLEX_MIX = (
    ("sdd", 2, (5, 7), "emd", 12),
    ("sdd", 2, (5, 7), "lac", 13),
    ("scd", 2, (8, 12), "emd", 8),
    ("scd", 2, (8, 12), "lac", 7),
    ("scd", 3, (6, 7), "emd", 10),
)


def simplex_ops(rng):
    """Clouds and perturbed, rigidly moved copies for SDD/SCD comparisons."""
    ops = []
    for inv, dim, (lo, hi), mode, count in SIMPLEX_MIX:
        for m, eps in zip(spread_sizes(count, lo, hi), stratified(rng, count, 1e-4, 1e-2)):
            pts = _spread_points(rng, m, dim, 0.1)
            _, moved, eps = perturbed_pair(rng, pts, eps)
            ops.append({"invariant": inv, "mode": mode, "points": pts, "moved": moved, "eps": eps})
    return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------- chains

N_SEQ_OPS = 40
N_DENSITY_OPS = 20
N_BACKBONE_OPS = 8
N_LATTICE_OPS = 32
LATTICES_PER_OP = 25
LCM_SHARE = 0.7
#: op i gets motif-size share (13 i mod N_SEQ_OPS + 1/2) / N_SEQ_OPS: a fixed
#: spread over the motif pairs, so the sizes are the same for every seed
SEQ_SHARE_STRIDE = 13


def _spaced_times(rng, n, period, min_share):
    """n sorted times in [0, period) whose cyclic gaps are all at least
    ``min_share * period / n``."""
    gaps = (min_share + (1.0 - min_share) * n * rng.dirichlet(np.ones(n))) * period / n
    t = np.cumsum(gaps) - gaps[0] + rng.uniform(0.0, gaps[0])
    return np.sort(t % period)


def _sequence_motif(rng, u, period, value_dim):
    """u points of a 1-periodic sequence with time gaps >= period / (4u)."""
    t = _spaced_times(rng, u, period, 0.25)
    return np.column_stack([t, rng.normal(size=(u, value_dim))])


def _repeat(motif, period, copies):
    shift = np.zeros(motif.shape[1])
    shift[0] = period
    return np.vstack([motif + c * shift for c in range(copies)])


LCM_PAIRS = ((2, 3), (3, 4), (2, 5), (3, 5), (4, 5))


def seq_op(rng, a, b, share, group, equivalence, value_dim):
    """Two encodings of one 1-periodic sequence with motif sizes u*a and u*b.

    With a != b the metric must extend both motifs to the least common
    multiple u*a*b (at most 60 points); ``share`` in [0, 1) sets u.
    """
    u = 2 + int(share * (60 // (a * b) - 1))
    period = 1.0
    motif = _sequence_motif(rng, u, period, value_dim)
    q = _repeat(motif, period, b)
    q_pert = _displaced(rng, q, rng.uniform(1e-4, 0.1 / (4 * u * b)))
    return {
        "s": (period * a, _repeat(motif, period, a)),
        "q": (period * b, q_pert),
        "group": group,
        "equivalence": equivalence,
        "eps": float(np.linalg.norm(q_pert - q, axis=1).max()),
        "lcm": a != b,
    }


def seq_ops(rng):
    """LCM_SHARE of the ops have unequal motif sizes; groups, equivalences
    and value dimensions take turns."""
    n_lcm = round(LCM_SHARE * N_SEQ_OPS)
    ops = []
    for i in range(N_SEQ_OPS):
        share = ((SEQ_SHARE_STRIDE * i) % N_SEQ_OPS + 0.5) / N_SEQ_OPS
        a, b = LCM_PAIRS[i % len(LCM_PAIRS)] if i < n_lcm else (1, 1)
        equivalence = ("isometry", "rigid")[(i // 2) % 2]
        value_dim = 2 if equivalence == "rigid" else 1 + (i // 4) % 2
        ops.append(seq_op(rng, a, b, share, ("cyclic", "dihedral")[i % 2], equivalence, value_dim))
    return ops


def density_op(rng, m, with_radii):
    """A periodic sequence of m points (or intervals) and an isometric copy.

    The copy is shifted and, half the time, reflected, so its fingerprint
    equals the original's.
    """
    period = float(rng.uniform(1.0, 10.0))
    c = _spaced_times(rng, m, period, 0.125)
    gaps = np.diff(np.concatenate([c, [c[0] + period]]))
    radii = None
    if with_radii:
        room = np.minimum(gaps, np.roll(gaps, 1))
        radii = room * rng.uniform(0.05, 0.45, size=m)
    copy = c if rng.random() < 0.5 else period - c
    copy = (copy + rng.uniform(0.0, period)) % period
    return {"period": period, "centres": c, "radii": radii, "copy": copy, "copy_radii": radii}


def backbone_chain(rng, m):
    """(m, 3, 3) N/CA/C coordinates with protein-like bond lengths.

    Each bond leaves the previous one at 1.2 rad with a random azimuth.
    """
    kicks = rng.normal(size=(3 * m, 3))
    kicks /= np.linalg.norm(kicks, axis=1, keepdims=True)
    heading = kicks[-1]
    pts = [np.zeros(3)]
    for length, kick in zip(np.tile([1.46, 1.52, 1.33], m)[: 3 * m - 1], kicks):
        v = heading * math.cos(1.2) + kick * math.sin(1.2)
        heading = v / np.linalg.norm(v)
        pts.append(pts[-1] + length * heading)
    return np.array(pts).reshape(m, 3, 3)


def backbone_op(rng, m):
    atoms = backbone_chain(rng, m)
    moved = atoms @ rotation(rng, 3).T + rng.normal(size=3)
    return {"atoms": atoms, "moved": moved}


def lattice_op(rng):
    """A batch of 2D bases, each with a rotated copy and a chiral group."""
    bases = []
    while len(bases) < LATTICES_PER_OP:
        v1, v2 = rng.normal(size=2), rng.normal(size=2)
        if abs(v1[0] * v2[1] - v1[1] * v2[0]) > 0.2 * np.linalg.norm(v1) * np.linalg.norm(v2):
            r = rotation(rng, 2)
            group = ("D2", "D4", "D6")[int(rng.integers(3))]
            bases.append((v1, v2, v1 @ r.T, v2 @ r.T, group))
    return {"bases": bases}


def chain_ops(rng):
    """Shuffled mix of seq1p, density1d, backbone and lattice2d ops."""
    ops = [("seq", op) for op in seq_ops(rng)]
    sizes = spread_sizes(N_DENSITY_OPS, 5, 40)
    ops += [("density", density_op(rng, m, i % 2 == 1)) for i, m in enumerate(sizes)]
    sizes = spread_sizes(N_BACKBONE_OPS, 100, 1000)
    ops += [("backbone", backbone_op(rng, m)) for m in sizes]
    ops += [("lattice", lattice_op(rng)) for _ in range(N_LATTICE_OPS)]
    return [ops[i] for i in rng.permutation(len(ops))]
