"""Invariants of periodic point sets: PDD/AMD, packing coefficient and the
asymptotic deviations (ADA/PDA/AND/PND), EMD metrics, novelty distance and
the near-duplicate detection pipeline.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import gamma

from .clouds import WeightedRows, collapse_rows, pdd_dist
from .numcore import INF, _pairwise

#: motif points closer than this under lattice translation are duplicates
MOTIF_DUPLICATE_TOL = 1e-6


def cell_to_basis(a, b, c, alpha, beta, gamma_deg):
    """Standard crystallographic cell-to-Cartesian basis (angles in degrees)."""
    al, be, ga = (math.radians(v) for v in (alpha, beta, gamma_deg))
    cx = c * math.cos(be)
    cy = c * (math.cos(al) - math.cos(be) * math.cos(ga)) / math.sin(ga)
    cz_sq = c**2 - cx**2 - cy**2
    if cz_sq <= 0:
        raise ValueError("invalid cell: non-positive volume")
    return np.array(
        [
            [a, 0.0, 0.0],
            [b * math.cos(ga), b * math.sin(ga), 0.0],
            [cx, cy, math.sqrt(cz_sq)],
        ]
    )


@dataclass(frozen=True)
class PeriodicSet:
    """An l-periodic set in R^n: basis (l x n) plus a finite Cartesian motif."""

    basis: np.ndarray
    motif: np.ndarray
    labels: Optional[Sequence[str]] = None

    def __post_init__(self):
        basis = np.atleast_2d(np.asarray(self.basis, dtype=float))
        motif = np.atleast_2d(np.asarray(self.motif, dtype=float))
        l, n = basis.shape
        if l > n:
            raise ValueError("period rank exceeds the ambient dimension")
        g = basis @ basis.T
        if np.linalg.det(g) <= 0:
            raise ValueError("basis vectors are linearly dependent")
        if motif.shape[1] != n:
            raise ValueError("motif dimension does not match the basis")
        # reduce motif representatives into the fundamental cell
        pinv = np.linalg.pinv(basis)
        frac = motif @ pinv
        ortho = motif - frac @ basis  # component outside the period span
        motif = (frac - np.floor(frac)) @ basis + ortho
        for i, j in itertools.combinations(range(len(motif)), 2):
            diff = motif[i] - motif[j]
            f = diff @ pinv
            nearest = (f - np.rint(f)) @ basis + (diff - f @ basis)
            if np.linalg.norm(nearest) < MOTIF_DUPLICATE_TOL:
                raise ValueError("duplicate motif points under lattice translation")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "motif", motif)

    @classmethod
    def from_fractional(cls, basis, frac, labels=None):
        basis = np.atleast_2d(np.asarray(basis, dtype=float))
        frac = np.atleast_2d(np.asarray(frac, dtype=float))
        return cls(basis, frac @ basis, labels)

    @property
    def rank(self):
        return self.basis.shape[0]

    @property
    def dim(self):
        return self.basis.shape[1]

    def cell_volume(self):
        g = self.basis @ self.basis.T
        return float(math.sqrt(np.linalg.det(g)))


def _min_plane_gap(basis):
    """Smallest distance between adjacent lattice hyperplanes.

    For integer coefficients z with |z_i| >= R the lattice vector z @ basis
    has norm at least R times this gap, which certifies neighbour search.
    """
    g = basis @ basis.T
    ginv = np.linalg.inv(g)
    # distance from basis vector i to the span of the others = 1/sqrt(ginv_ii)
    return float(1.0 / math.sqrt(np.max(np.diag(ginv))))


def neighbours(S, k):
    """Exact k nearest-neighbour distances within the infinite set.

    Returns an (m, k) array: row i holds the k smallest distances from
    motif point i to all other points of S.  Shell expansion over integer
    coefficient boxes stops once the certificate (R+1) * gap - diameter
    exceeds the current k-th candidate distance.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    basis, motif = S.basis, S.motif
    l = S.rank
    m = len(motif)
    if m == 0:
        raise ValueError("empty motif")
    diam = float(_pairwise(motif, motif).max())
    gap = _min_plane_gap(basis)
    # initial guess from the packing coefficient asymptotic
    R = max(2, int(math.ceil((ppc(S) * (k / m + 1) ** (1.0 / l) + diam) / gap)))
    while True:
        ranges = [np.arange(-R, R + 1)] * l
        coeffs = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, l)
        translates = coeffs @ basis
        points = (motif[None, :, :] + translates[:, None, :]).reshape(-1, S.dim)
        d = np.sort(_pairwise(motif, points), axis=1)
        # drop the zero self-distance in each row
        rows = d[:, 1 : k + 1]
        if rows.shape[1] < k:
            R *= 2
            continue
        kth_max = rows[:, -1].max()
        if (R + 1) * gap - diam >= kth_max:
            return rows
        R = max(R + 1, int(math.ceil((kth_max + diam) / gap)))


def pdd_periodic(S, k, collapse_tol=0.0):
    """Pointwise Distance Distribution of a periodic set."""
    rows = neighbours(S, k)
    weights = np.full(len(rows), 1.0 / len(rows))
    return collapse_rows(rows, weights, collapse_tol)


def amd(S, k):
    """Average Minimum Distances: weighted column means of the PDD."""
    P = pdd_periodic(S, k)
    return P.weights @ P.rows


def ppc(S):
    """Point Packing Coefficient (vol per point / unit-ball volume)^(1/l)."""
    l = S.rank
    v_l = math.pi ** (l / 2.0) / gamma(l / 2.0 + 1.0)
    return float((S.cell_volume() / (len(S.motif) * v_l)) ** (1.0 / l))


def deviations(S, k):
    """Deviations of AMD/PDD from the PPC * k^(1/l) asymptotic.

    Returns a dict with 'ada' and 'and' vectors plus 'pda' and 'pnd'
    weighted-row matrices.
    """
    P = pdd_periodic(S, k)
    c = ppc(S)
    l = S.rank
    js = np.arange(1, k + 1) ** (1.0 / l)
    pda_rows = P.rows - c * js[None, :]
    pnd_rows = P.rows / (c * js[None, :]) - 1.0
    a = P.weights @ P.rows
    return {
        "ada": a - c * js,
        "and": a / (c * js) - 1.0,
        "pda": WeightedRows(P.weights, pda_rows),
        "pnd": WeightedRows(P.weights, pnd_rows),
    }


def pda_dist(S, Q, k, q=INF):
    """EMD between the PDA matrices of two periodic sets (ground L_q)."""
    if S.rank != Q.rank:
        raise ValueError("period ranks differ")
    return pdd_dist(deviations(S, k)["pda"], deviations(Q, k)["pda"], q)


def lnd(S, dataset, k, ids=None):
    """Local Novelty Distance: nearest EMD(PDA) over a reference dataset."""
    if not dataset:
        raise ValueError("empty dataset")
    pda_s = deviations(S, k)["pda"]
    best, best_id = math.inf, None
    for idx, Q in enumerate(dataset):
        d = pdd_dist(pda_s, deviations(Q, k)["pda"], INF)
        if d < best:
            best, best_id = d, ids[idx] if ids is not None else idx
    return best, best_id


def dedup(dataset, k=100, ada_threshold=0.01, confirm_threshold=0.01, ids=None):
    """Near-duplicate pairs: L_inf(ADA) filter then EMD(PDA) confirmation.

    The filter is a true lower bound for the confirmation metric, so no
    acceptable pair is skipped.  Pairs are reported sorted by EMD value.
    """
    if not dataset:
        raise ValueError("empty dataset")
    if ids is None:
        ids = list(range(len(dataset)))
    devs = [deviations(S, k) for S in dataset]
    results = []
    for i, j in itertools.combinations(range(len(dataset)), 2):
        ada_gap = float(np.abs(devs[i]["ada"] - devs[j]["ada"]).max())
        if ada_gap > ada_threshold:
            continue
        value = pdd_dist(devs[i]["pda"], devs[j]["pda"], INF)
        if value <= confirm_threshold:
            results.append((ids[i], ids[j], ada_gap, value))
    results.sort(key=lambda t: (t[3], t[0], t[1]))
    return results
