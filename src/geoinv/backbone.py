"""Protein-backbone invariants: TRIN, BRI, BRAIN, mirror and subchain rules,
and reconstruction from the invariant matrix by composed residue frames.

A backbone is an ordered chain of residues, each contributing the main-chain
atoms N, A (alpha-carbon) and C.  Every residue carries an orthonormal frame
built from the vectors A->N and A->C; BRI stores the coordinates of the three
inter-atom bond vectors in the previous residue's frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .io import _read_table, fmt
from .numcore import _as_index, _rows

#: minimum residue-triangle height (Angstrom) before a frame is degenerate
HEIGHT_TOL = 1e-6
#: minimum bond length between consecutive bonded atoms
BOND_TOL = 1e-2
#: largest absolute atom coordinate or BRI entry; squared bond lengths stay finite
MAX_COORD = 1e150


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
        if not np.isfinite(atoms).all():
            raise ValueError("non-finite coordinates")
        if np.abs(atoms).max() > MAX_COORD:
            raise ValueError(f"coordinates above {MAX_COORD:g} in absolute value")
        # a zero N-A bond makes its TRIN row NaN; it is reported as a short bond
        with np.errstate(divide="ignore", invalid="ignore"):
            t = _trin(atoms)
        l_ac = np.linalg.norm(atoms[:, 2] - atoms[:, 1], axis=1)
        short = (t[:, 0] < BOND_TOL) | (l_ac < BOND_TOL)
        bad = short | (t[:, 2] < HEIGHT_TOL)
        if bad.any():
            i = int(bad.argmax())
            what = "bonded atoms too close" if short[i] else "collinear N, A, C"
            raise ValueError(f"residue {i + 1}: {what}")
        object.__setattr__(self, "atoms", atoms)

    @property
    def m(self):
        return len(self.atoms)


def _trin(atoms):
    """Per-residue (x(AN), x(AC), y(AC)) of an (m, 3, 3) atom array."""
    an = atoms[:, 0] - atoms[:, 1]
    ac = atoms[:, 2] - atoms[:, 1]
    l = np.linalg.norm(an, axis=1)
    xhat = an / l[:, None]
    x = (ac * xhat).sum(axis=1)
    return np.column_stack([l, x, np.linalg.norm(ac - x[:, None] * xhat, axis=1)])


def _frame(n, a, c):
    """Orthonormal frame rows (u, v, w) of a residue: u along A->N, v in-plane.

    ``n``, ``a`` and ``c`` are the atoms of one residue, shape (3,), or of a
    stack of residues, shape (k, 3); the frame has shape (3, 3) or (k, 3, 3).
    """
    an = n - a
    u = an / np.linalg.norm(an, axis=-1, keepdims=True)
    ac = c - a
    h = ac - (ac * u).sum(axis=-1, keepdims=True) * u
    v = h / np.linalg.norm(h, axis=-1, keepdims=True)
    return np.stack([u, v, np.cross(u, v)], axis=-2)


def trin(S):
    """Triangular invariant: per-residue (x(AN), x(AC), y(AC))."""
    return _trin(S.atoms)


def bri(S):
    """Backbone rigid invariant: m x 9 matrix.

    Row 1 holds the first residue's TRIN values padded with six zeros; row i
    (i >= 2) holds the coordinates of C_(i-1)N_i, N_iA_i and A_iC_i in the
    frame of residue i-1.
    """
    n, a, c = S.atoms[:, 0], S.atoms[:, 1], S.atoms[:, 2]
    bonds = np.stack([n[1:] - c[:-1], a[1:] - n[1:], c[1:] - a[1:]], axis=1)
    out = np.zeros((S.m, 9))
    out[0, :3] = _trin(S.atoms[:1])[0]
    out[1:] = (bonds @ _frame(n[:-1], a[:-1], c[:-1]).swapaxes(1, 2)).reshape(-1, 9)
    return out


def _bri_of(S):
    """BRI of a Backbone, or a BRI matrix given as an array or nested list."""
    return bri(S) if isinstance(S, Backbone) else _rows(S, "BRI entries", 9)


def brain(S):
    """Nine column averages of BRI, excluding the first row."""
    b = _bri_of(S)
    if len(b) < 2:
        raise ValueError("need at least two residues for BRAIN")
    return b[1:].mean(axis=0)


def bri_dist(S, Q):
    """Chebyshev distance between flattened BRI matrices."""
    bs, bq = _bri_of(S), _bri_of(Q)
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
    out = _rows(b, "BRI entries", 9).copy()
    out[1:, [2, 5, 8]] *= -1.0
    return out


def reconstruct(b):
    """Backbone realising a BRI matrix; A_1 at the origin, first residue in
    the xy-plane with N_1 on the positive x-axis.

    Row i + 1 holds the bonds of residue i + 1 in the frame F_i of residue
    i, and ``_frame`` is rigid-equivariant, so F_(i+1) = G_(i+1) F_i where
    G_(i+1) is the frame of the stored N->A and A->C bonds of that row.  All
    G come from one stacked ``_frame`` call, the frames from a prefix product
    in ceil(log2 m) stacked matmuls (Hillis-Steele), the bonds from one
    batched matmul and the atoms from one cumulative sum starting at C_1.
    """
    b = _rows(b, "BRI entries", 9)
    if np.abs(b).max() > MAX_COORD:
        raise ValueError(f"BRI entries above {MAX_COORD:g} in absolute value")
    l, x, y = b[0, :3]
    if l <= 0 or y == 0:
        raise ValueError("unrealisable first row")
    n1, a1, c1 = np.array([l, 0.0, 0.0]), np.zeros(3), np.array([x, y, 0.0])
    bonds = b[1:].reshape(-1, 3, 3)  # C->N, N->A, A->C of residues 2..m
    with np.errstate(divide="ignore", invalid="ignore"):  # NaN frames are reported below
        frames = np.concatenate(
            [_frame(n1, a1, c1)[None], _frame(-bonds[:-1, 1], a1, bonds[:-1, 2])]
        )
    bad = ~np.isfinite(frames).all(axis=(1, 2))
    if bad.any():
        raise ValueError(f"BRI row {int(bad.argmax()) + 1}: no frame for a zero N-A bond "
                         "or exactly collinear N, A, C")
    step = 1
    while step < len(frames):
        frames[step:] = frames[step:] @ frames[:-step]
        step *= 2
    path = np.cumsum(np.vstack([c1, (bonds @ frames[: len(bonds)]).reshape(-1, 3)]), axis=0)
    return Backbone(np.concatenate([[[n1, a1, c1]], path[1:].reshape(-1, 3, 3)]))


def subchain(b, i, j):
    """BRI of residues i..i+j-1 of the parent chain (1-based i).

    Rows i+1..i+j-1 of the parent are reused verbatim; only the first row is
    recomputed, directly from the bond coordinates stored in parent row i.
    """
    b = _rows(b, "BRI entries", 9)
    m = len(b)
    i, j = _as_index(i, "i", 1), _as_index(j, "j", 1)
    if i + j - 1 > m:
        raise ValueError("subchain out of range")
    out = np.zeros((j, 9))
    if i == 1:
        out[0, :3] = b[0, :3]
    else:  # residue i with A at the origin; A->N reverses the stored N->A bond
        out[0, :3] = _trin(np.stack([-b[i - 1, 3:6], np.zeros(3), b[i - 1, 6:9]])[None])[0]
    out[1:] = b[i : i + j - 1]
    return out


def lipschitz_lambda(S, Q):
    """Lipschitz constant 2(1 + 2LK) for the BRI metric over two chains.

    L is the longest bond, K = 1/l + (2/h)(1 + 2L_AC/l) with l the shortest
    N-A bond, h the smallest residue-triangle height and L_AC the longest
    A-C bond, extremised over both chains.
    """
    t = np.vstack([trin(S), trin(Q)])
    atoms = np.concatenate([S.atoms, Q.atoms])
    l_ac = np.linalg.norm(atoms[:, 2] - atoms[:, 1], axis=1)
    l_cn = [np.linalg.norm(X.atoms[1:, 0] - X.atoms[:-1, 2], axis=1) for X in (S, Q)]
    big_l = max(t[:, 0].max(), l_ac.max(), np.concatenate(l_cn).max(initial=0.0))
    l_na = t[:, 0].min()
    k = 1.0 / l_na + (2.0 / t[:, 2].min()) * (1.0 + 2.0 * l_ac.max() / l_na)
    return 2.0 * (1.0 + 2.0 * big_l * k)


def read_tsv(path):
    """Read a backbone from TSV rows: residue_index, Nx..Nz, Ax..Az, Cx..Cz."""
    rows = _read_table(path, "backbone rows", "\t", 10)
    order = np.argsort(rows[:, 0])
    atoms = rows[order, 1:].reshape(-1, 3, 3)
    return Backbone(atoms)


def _tsv(S):
    """A backbone as TSV text: one row per residue, its index and 9 coordinates."""
    rows = np.column_stack([np.arange(1, S.m + 1), S.atoms.reshape(S.m, 9)])
    return "\n".join("\t".join(fmt(v) for v in row) for row in rows) + "\n"


def write_tsv(path, S):
    """Write a backbone in the TSV format accepted by :func:`read_tsv`."""
    with open(path, "w") as fh:
        fh.write(_tsv(S))


def write_ppm(path, b):
    """Export the BRI barcode as a plain PPM image (one pixel per entry).

    Columns are min-max scaled independently; the colour map is therefore
    non-canonical and intended only for visual diffing.
    """
    b = _rows(b, "BRI entries", 9)
    lo = b.min(axis=0)
    span = b.max(axis=0) - lo
    span[span == 0] = 1.0
    scaled = np.rint(255 * (b - lo) / span).astype(int)
    m = len(b)
    with open(path, "w") as fh:
        fh.write(f"P3\n{m} 3\n255\n")
        for block in range(3):  # one image row per bond vector (x, y, z triples)
            fh.write(" ".join(map(str, scaled[:, 3 * block : 3 * block + 3].ravel())) + "\n")
