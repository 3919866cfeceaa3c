"""Protein-backbone invariants: TRIN, BRI, BRAIN, mirror and subchain rules,
and O(m) reconstruction from the invariant matrix.

A backbone is an ordered chain of residues, each contributing the main-chain
atoms N, A (alpha-carbon) and C.  Every residue carries an orthonormal frame
built from the vectors A->N and A->C; BRI stores the coordinates of the three
inter-atom bond vectors in the previous residue's frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

#: minimum residue-triangle height (Angstrom) before a frame is degenerate
HEIGHT_TOL = 1e-6
#: minimum bond length between consecutive bonded atoms
BOND_TOL = 1e-2


@dataclass(frozen=True)
class Backbone:
    """Ordered chain of residues; atoms[i] = (N_i, A_i, C_i) stacked (m, 3, 3)."""

    atoms: np.ndarray
    labels: Optional[Sequence[str]] = None

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        if atoms.ndim != 3 or atoms.shape[1:] != (3, 3):
            raise ValueError("atoms must have shape (m, 3, 3)")
        if len(atoms) < 1:
            raise ValueError("need at least one residue")
        for i, (n, a, c) in enumerate(atoms):
            an, ac = n - a, c - a
            l = np.linalg.norm(an)
            if l < BOND_TOL or np.linalg.norm(ac) < BOND_TOL:
                raise ValueError(f"residue {i + 1}: bonded atoms too close")
            x = ac @ an / l
            height = np.linalg.norm(ac - x * an / l)
            if height < HEIGHT_TOL:
                raise ValueError(f"residue {i + 1}: collinear N, A, C")
        object.__setattr__(self, "atoms", atoms)

    @property
    def m(self):
        return len(self.atoms)


def _frame(n, a, c):
    """Orthonormal frame (u, v, w) of a residue: u along A->N, v in-plane."""
    an = n - a
    u = an / np.linalg.norm(an)
    ac = c - a
    h = ac - (ac @ u) * u
    v = h / np.linalg.norm(h)
    w = np.cross(u, v)
    return np.stack([u, v, w])


def trin(S):
    """Triangular invariant: per-residue (x(AN), x(AC), y(AC))."""
    out = np.empty((S.m, 3))
    for i, (n, a, c) in enumerate(S.atoms):
        an, ac = n - a, c - a
        l = np.linalg.norm(an)
        xhat = an / l
        x = ac @ xhat
        out[i] = (l, x, np.linalg.norm(ac - x * xhat))
    return out


def bri(S):
    """Backbone rigid invariant: m x 9 matrix.

    Row 1 holds the first residue's TRIN values padded with six zeros; row i
    (i >= 2) holds the coordinates of C_(i-1)N_i, N_iA_i and A_iC_i in the
    frame of residue i-1.
    """
    t = trin(S)
    out = np.zeros((S.m, 9))
    out[0, :3] = t[0]
    for i in range(1, S.m):
        n_prev, a_prev, c_prev = S.atoms[i - 1]
        frame = _frame(n_prev, a_prev, c_prev)
        n, a, c = S.atoms[i]
        out[i, 0:3] = frame @ (n - c_prev)
        out[i, 3:6] = frame @ (a - n)
        out[i, 6:9] = frame @ (c - a)
    return out


def brain(S):
    """Nine column averages of BRI, excluding the first row."""
    b = S if isinstance(S, np.ndarray) else bri(S)
    if len(b) < 2:
        raise ValueError("need at least two residues for BRAIN")
    return b[1:].mean(axis=0)


def bri_dist(S, Q):
    """Chebyshev distance between flattened BRI matrices."""
    bs = S if isinstance(S, np.ndarray) else bri(S)
    bq = Q if isinstance(Q, np.ndarray) else bri(Q)
    if bs.shape != bq.shape:
        raise ValueError("residue counts differ")
    return float(np.abs(bs - bq).max())


def mirror_backbone(S):
    """Mirror image of a backbone (reflection in the xy-plane)."""
    atoms = S.atoms.copy()
    atoms[:, :, 2] *= -1.0
    return Backbone(atoms, S.labels)


def mirror_bri(b):
    """BRI of the mirror image: the z-columns (3, 6, 9) change sign.

    Row 1 is untouched: its three entries are the first residue's planar
    TRIN values, not frame coordinates.
    """
    out = np.atleast_2d(np.asarray(b, dtype=float)).copy()
    out[1:, [2, 5, 8]] *= -1.0
    return out


def reconstruct(b):
    """Backbone realising a BRI matrix; A_1 at the origin, first residue in
    the xy-plane with N_1 on the positive x-axis."""
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if b.ndim != 2 or b.shape[0] < 1 or b.shape[1] != 9:
        raise ValueError(f"a BRI matrix has m >= 1 rows of 9 numbers, got shape {b.shape}")
    m = len(b)
    l, x, y = b[0, :3]
    if l <= 0 or y == 0:
        raise ValueError("unrealisable first row")
    atoms = np.empty((m, 3, 3))
    a = np.zeros(3)
    n = np.array([l, 0.0, 0.0])
    c = np.array([x, y, 0.0])
    atoms[0] = (n, a, c)
    for i in range(1, m):
        frame = _frame(n, a, c)
        n = c + b[i, 0:3] @ frame
        a = n + b[i, 3:6] @ frame
        c = a + b[i, 6:9] @ frame
        atoms[i] = (n, a, c)
    return Backbone(atoms)


def subchain(b, i, j):
    """BRI of residues i..i+j-1 of the parent chain (1-based i).

    Rows i+1..i+j-1 of the parent are reused verbatim; only the first row is
    recomputed, directly from the bond coordinates stored in parent row i.
    """
    b = np.atleast_2d(np.asarray(b, dtype=float))
    m = len(b)
    if not (1 <= i and j >= 1 and i + j - 1 <= m):
        raise ValueError("subchain out of range")
    out = np.zeros((j, 9))
    if i == 1:
        out[0, :3] = b[0, :3]
    else:
        na = b[i - 1, 3:6]
        ac = b[i - 1, 6:9]
        l = np.linalg.norm(na)
        xhat = -na / l  # A->N is the reverse of the stored N->A bond
        x = ac @ xhat
        out[0, :3] = (l, x, np.linalg.norm(ac - x * xhat))
    out[1:] = b[i : i + j - 1]
    return out


def lipschitz_lambda(S, Q):
    """Lipschitz constant 2(1 + 2LK) for the BRI metric over two chains.

    L is the longest bond, K = 1/l + (2/h)(1 + 2L_AC/l) with l the shortest
    N-A bond, h the smallest residue-triangle height and L_AC the longest
    A-C bond, extremised over both chains.
    """
    lengths = {"CN": [], "NA": [], "AC": []}
    heights = []
    for chain in (S, Q):
        t = trin(chain)
        heights.extend(t[:, 2])
        lengths["NA"].extend(np.linalg.norm(chain.atoms[:, 0] - chain.atoms[:, 1], axis=1))
        lengths["AC"].extend(np.linalg.norm(chain.atoms[:, 2] - chain.atoms[:, 1], axis=1))
        lengths["CN"].extend(
            np.linalg.norm(chain.atoms[1:, 0] - chain.atoms[:-1, 2], axis=1)
        )
    big_l = max(max(lengths["NA"]), max(lengths["AC"]), max(lengths["CN"], default=0.0))
    l_na = min(lengths["NA"])
    l_ac_max = max(lengths["AC"])
    h = min(heights)
    k = 1.0 / l_na + (2.0 / h) * (1.0 + 2.0 * l_ac_max / l_na)
    return 2.0 * (1.0 + 2.0 * big_l * k)


def read_tsv(path):
    """Read a backbone from TSV rows: residue_index, Nx..Nz, Ax..Az, Cx..Cz."""
    rows = np.loadtxt(path, delimiter="\t", ndmin=2)
    if rows.shape[1] != 10:
        raise ValueError("expected 10 tab-separated columns per residue")
    order = np.argsort(rows[:, 0])
    atoms = rows[order, 1:].reshape(-1, 3, 3)
    return Backbone(atoms)


def write_tsv(path, S):
    """Write a backbone in the TSV format accepted by :func:`read_tsv`."""
    m = S.m
    data = np.column_stack([np.arange(1, m + 1), S.atoms.reshape(m, 9)])
    np.savetxt(path, data, delimiter="\t", fmt="%.12g")


def write_ppm(path, b):
    """Export the BRI barcode as a plain PPM image (one pixel per entry).

    Columns are min-max scaled independently; the colour map is therefore
    non-canonical and intended only for visual diffing.
    """
    b = np.atleast_2d(np.asarray(b, dtype=float))
    lo = b.min(axis=0)
    span = b.max(axis=0) - lo
    span[span == 0] = 1.0
    scaled = np.rint(255 * (b - lo) / span).astype(int)
    m = len(b)
    with open(path, "w") as fh:
        fh.write(f"P3\n{m} 3\n255\n")
        for block in range(3):  # one image row per bond vector (x, y, z triples)
            vals = []
            for i in range(m):
                r, g, bl = scaled[i, 3 * block : 3 * block + 3]
                vals.append(f"{r} {g} {bl}")
            fh.write(" ".join(vals) + "\n")
