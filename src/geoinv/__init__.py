"""Continuous isometry invariants and exact metrics for point clouds,
2D lattices, periodic sets, 1-periodic sequences and protein backbones."""

from __future__ import annotations

from .backbone import (
    Backbone,
    brain,
    bri,
    bri_dist,
    lipschitz_lambda,
    mirror_backbone,
    mirror_bri,
    reconstruct,
    subchain,
    trin,
)
from .clouds import PointCloud, WeightedRows, collapse_rows, pdd, pdd_dist, spd, srd
from .density1d import (
    PeriodicSequence1D,
    PiecewiseLinear,
    fingerprint_dist,
    fingerprint_equal,
    psi,
    rho,
)
from .lattice2d import (
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
)
from .numcore import (
    INF,
    Exponent,
    bottleneck,
    emd,
    hausdorff,
    lac,
    minkowski,
    norm_exponent,
)
from .periodic import (
    PeriodicSet,
    amd,
    cell_to_basis,
    dedup,
    deviations,
    lnd,
    neighbours,
    pda_dist,
    pdd_periodic,
    ppc,
)
from .seq1p import OnePeriodicSequence, cdm, cds, mcd, mcs, seq_metric, time_shift
from .simplexwise import Ocd, Rdd, Scd, Sdd, scd, scd_dist, sdd, sdd_dist, strength

__version__ = "1.0.0"
