"""One public-API call for each error branch that no other test reaches.

Each row is (branch, call, message): the call must raise ValueError with the
message of that branch.  The rows are grouped per module.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest

import geoinv as g
from geoinv.backbone import read_tsv
from geoinv.clouds import spd_from_pdd
from geoinv.io import parse_xyz, write_cif_lite
from geoinv.lattice2d import ProjectedInvariant2D, RootInvariant2D, superbase_from_root_invariant
from geoinv.seq1p import sign_row

X = np.random.default_rng(3).random((5, 3))
BRI = g.bri(g.Backbone(np.array([
    [[0, 0, 0], [1.5, 0, 0], [2, 1, 0]],
    [[3, 1, 0.5], [4, 0.5, 0], [5, 1.5, 0.3]],
    [[6, 0, 1], [7.5, 0.2, 0.8], [8, 1.2, 1.1]],
    [[9, 0.5, 0.4], [10.2, 0.1, 1.3], [11, 1.4, 0.9]],
])))
CUBIC = g.PeriodicSet(np.eye(3), [[0.0, 0.0, 0.0]])
RI_PLUS, RI_MINUS = RootInvariant2D(1.0, 2.0, 3.0, 1), RootInvariant2D(1.0, 2.0, 3.0, -1)
PI_PLUS, PI_MINUS = ProjectedInvariant2D(0.1, 0.2, 1), ProjectedInvariant2D(0.1, 0.2, -1)


def _unrealisable(b):
    b = b.copy()
    b[0, 0] = -1.0
    return b


def _read_nine_columns():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "nine.tsv"
        path.write_text("1\t0\t0\t0\t1\t0\t0\t1\t1\n")
        return read_tsv(path)


BRANCHES = {
    "backbone": [
        ("brain of one residue", lambda: g.brain(BRI[:1]), "at least two residues"),
        ("bri_dist of two lengths", lambda: g.bri_dist(BRI, BRI[:3]), "residue counts differ"),
        ("reconstruct a negative bond", lambda: g.reconstruct(_unrealisable(BRI)),
         "unrealisable first row"),
        ("subchain past the end", lambda: g.subchain(BRI, 3, 3), "subchain out of range"),
        ("read_tsv of nine columns", _read_nine_columns, "rows of 10 numbers"),
    ],
    "clouds": [
        ("labels of another length", lambda: g.PointCloud(X, ["a"]), "labels do not match"),
        ("spd of one point", lambda: g.spd(X[:1]), "at least 2 points"),
        ("pdd_dist of two k", lambda: g.pdd_dist(g.pdd(X, 2), g.pdd(X, 3)), "column-count"),
        ("rms with q = 1", lambda: g.pdd_dist(g.pdd(X, 2), g.pdd(X, 2), 1, rms=True),
         "RMS ground metric"),
        ("spd_from_pdd of a partial PDD", lambda: spd_from_pdd(g.pdd(X, 2)),
         "need a full PDD"),
    ],
    "density1d": [
        ("negative radius", lambda: g.PeriodicSequence1D(1.0, [0.1, 0.5], [-0.1, 0.1]),
         "radii must be non-negative"),
        ("repeated centre", lambda: g.PeriodicSequence1D(1.0, [0.1, 0.1]),
         "centres must be distinct"),
        ("decreasing corners", lambda: g.PiecewiseLinear([[1.0, 0.0], [0.0, 1.0]]),
         "must strictly increase"),
        ("rho with radii", lambda: g.rho(g.PeriodicSequence1D(1.0, [0.1, 0.5], [0.05, 0.05]), 1),
         "zero-radius"),
    ],
    "io": [
        ("CIF of a 2-periodic set", lambda: write_cif_lite(g.PeriodicSet(np.eye(2), [[0.0, 0.0]])),
         "3-periodic set in R\\^3"),
        ("XYZ of one line", lambda: parse_xyz("1"), "truncated XYZ"),
        ("XYZ without a count", lambda: parse_xyz("x\n\nC 0 0 0"), "bad XYZ header"),
        ("XYZ with a word", lambda: parse_xyz("1\n\nC a 0 0"), "non-numeric XYZ"),
    ],
    "lattice2d": [
        ("projected invariant of size 0",
         lambda: g.projected_invariant(RootInvariant2D(0.0, 0.0, 0.0, 0)), "zero-size"),
        ("oriented rm with q = 3", lambda: g.rm(RI_PLUS, RI_MINUS, 3, oriented=True),
         "oriented root metric"),
        ("oriented pm with q = 3", lambda: g.pm(PI_PLUS, PI_MINUS, 3, oriented=True),
         "oriented projected metric"),
        ("root chiral with q = 3", lambda: g.chiral(RI_PLUS, "D2", 3), "q in \\{2, inf\\} only"),
        ("projected D2 chiral with q = 3", lambda: g.chiral(PI_PLUS, "D2", 3),
         "projected D2 chiral"),
        ("chiral of no invariant", lambda: g.chiral(object(), "D2"), "unsupported invariant"),
        ("basis of a zero invariant",
         lambda: superbase_from_root_invariant(RootInvariant2D(0.0, 0.0, 0.0, 0)),
         "degenerate root invariant"),
        ("design outside the triangle", lambda: g.inverse_design(0.8, 0.8, 1.0),
         "quotient triangle"),
    ],
    "numcore": [
        ("emd costs of too few rows", lambda: g.emd([0.5, 0.5], [0.5, 0.5], [[1.0, 2.0]]),
         "cost matrix shape"),
        ("emd of a negative cost", lambda: g.emd([1.0], [1.0], [[-1.0]]), "negative costs"),
    ],
    "periodic": [
        ("lnd of no references", lambda: g.lnd(CUBIC, [], 3), "empty dataset"),
        ("dedup of no sets", lambda: g.dedup([]), "empty dataset"),
    ],
    "seq1p": [
        ("cdm of one point", lambda: g.cdm([[0.0, 0.0]]), "at least 2 points"),
        ("sign row in R^1", lambda: sign_row([[0.0], [1.0], [3.0]]), "n in \\{2, 3\\}"),
        ("one time twice", lambda: g.OnePeriodicSequence(1.0, [[0.25, 0.0], [1.25, 1.0]]),
         "time projections must be distinct"),
    ],
    "simplexwise": [
        ("sdd of order m", lambda: g.sdd(X[:2], 2), "smaller than the cloud size"),
        ("scd in R^1", lambda: g.scd([[0.0], [1.0], [3.0]]), "dimensions 2 and 3"),
        ("scd of two points in R^3", lambda: g.scd(X[:2]), "cloud too small"),
    ],
}


@pytest.mark.parametrize("call, message", [
    pytest.param(call, message, id=f"{module}-{branch}")
    for module, rows in BRANCHES.items() for branch, call, message in rows
])
def test_error_branch_is_reached(call, message):
    with pytest.raises(ValueError, match=message):
        call()
