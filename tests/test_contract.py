"""One input contract for every public entry point that reads an array or
a scalar.

Each row of ``CASES`` is one valid call.  Every array argument is mutated
four ways: a nested list must give the result of the valid call, while one
NaN, no rows and an extra leading axis must raise ValueError, except where
``ALLOWED`` documents another behaviour.  ``NO_ARRAYS`` names the exported
callables that read no array, so every export sits in one table or the
other.  ``test_arrays_are_read_in_numcore`` keeps the array reads in
``numcore``'s readers.

Each row of ``SCALARS`` is one valid call too, with the kind of each count,
order, tolerance, threshold, period, exponent, size and cell parameter.
Every such argument set to NaN, inf, -1, "1" or None (and a count to 1.5)
must raise ValueError, except where ``SCALAR_ALLOWED`` says why a kind takes
that value.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

import geoinv as g
from geoinv.backbone import write_ppm
from geoinv.clouds import spd_from_pdd
from geoinv.numcore import bottleneck_from_costs
from geoinv.simplexwise import simplex_sign

RNG = np.random.default_rng(7)
X, Y = RNG.random((5, 3)), RNG.random((5, 3))
CHAIN = np.array([
    [[0, 0, 0], [1.5, 0, 0], [2, 1, 0]],
    [[3, 1, 0.5], [4, 0.5, 0], [5, 1.5, 0.3]],
    [[6, 0, 1], [7.5, 0.2, 0.8], [8, 1.2, 1.1]],
    [[9, 0.5, 0.4], [10.2, 0.1, 1.3], [11, 1.4, 0.9]],
])
BRI = g.bri(g.Backbone(CHAIN))
BRI2 = g.bri(g.Backbone(CHAIN + 0.01 * (np.arange(36).reshape(4, 3, 3) % 3)))
SEQ = np.array([[0.0, 0.0], [0.2, 1.0], [0.45, 0.5], [0.7, 2.0]])
COSTS = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
ROWS = [[1.0, 2.0], [1.5, 2.5]]
#: as many motif points as dimensions, so that a leading axis keeps the shapes aligned
MOTIF = [[0.0, 0.0, 0.0], [0.5, 0.5, 0.5], [0.25, 0.5, 0.0]]


def _ppm_text(b):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bri.ppm"
        write_ppm(path, b)
        return path.read_text()


#: (name, callable, valid arguments, positions of the array arguments)
CASES = [
    ("bottleneck", g.bottleneck, (X, Y), (0, 1)),
    ("bottleneck_from_costs", bottleneck_from_costs, (COSTS,), (0,)),
    ("hausdorff", g.hausdorff, (X, Y), (0, 1)),
    ("emd", g.emd, ([0.5, 0.5], [0.25, 0.75], [[0.0, 1.0], [2.0, 0.5]]), (0, 1, 2)),
    ("lac", g.lac, (COSTS,), (0,)),
    ("minkowski", g.minkowski, ([0.0, 1.0, 2.0], [1.0, 1.0, 1.0]), (0, 1)),
    ("PointCloud", g.PointCloud, (X,), (0,)),
    ("srd", g.srd, (X,), (0,)),
    ("spd", g.spd, (X,), (0,)),
    ("pdd", g.pdd, (X, 2), (0,)),
    ("sdd", g.sdd, (X, 1), (0,)),
    ("scd", g.scd, (X,), (0,)),
    ("WeightedRows", g.WeightedRows, ([0.5, 0.5], ROWS), (0, 1)),
    ("collapse_rows", g.collapse_rows, (ROWS, [0.5, 0.5]), (0, 1)),
    ("strength", g.strength, (X[:4],), (0,)),
    ("simplex_sign", simplex_sign, (X[:4],), (0,)),
    ("Backbone", g.Backbone, (CHAIN,), (0,)),
    ("brain", g.brain, (BRI,), (0,)),
    ("bri_dist", g.bri_dist, (BRI, BRI2), (0, 1)),
    ("mirror_bri", g.mirror_bri, (BRI,), (0,)),
    ("reconstruct", g.reconstruct, (BRI,), (0,)),
    ("subchain", g.subchain, (BRI, 2, 3), (0,)),
    ("write_ppm", _ppm_text, (BRI,), (0,)),
    ("PeriodicSequence1D", g.PeriodicSequence1D, (1.0, [0.1, 0.5], [0.05, 0.1]), (1, 2)),
    ("PiecewiseLinear", g.PiecewiseLinear, ([[0.0, 1.0], [1.0, 0.5]],), (0,)),
    ("Basis2D", g.Basis2D, ([1.0, 0.0], [0.3, 1.1]), (0, 1)),
    ("reduce_basis", g.reduce_basis, ([[1.0, 0.0], [0.3, 1.1]],), (0,)),
    ("root_invariant", g.root_invariant, ([[1.0, 0.0], [0.3, 1.1]],), (0,)),
    ("PeriodicSet", g.PeriodicSet, (np.eye(3), MOTIF), (0, 1)),
    ("PeriodicSet.from_fractional", g.PeriodicSet.from_fractional, (np.eye(3), MOTIF), (0, 1)),
    ("OnePeriodicSequence", g.OnePeriodicSequence, (1.0, SEQ), (1,)),
    ("cdm", g.cdm, (SEQ,), (0,)),
    ("cds", g.cds, (SEQ,), (0,)),
    ("mcd", g.mcd, (SEQ, SEQ[::-1]), (0, 1)),
    ("mcs", g.mcs, (SEQ, SEQ[::-1]), (0, 1)),
]

#: (name, argument position, mutation) -> why the call returns
ALLOWED = {
    ("bottleneck_from_costs", 0, "leading axis"): "a stack (..., k, k) gives one bottleneck per matrix",
    ("strength", 0, "leading axis"): "a stack (..., n+1, n) gives one strength per simplex",
    ("simplex_sign", 0, "leading axis"): "a stack (..., n+1, n) gives one sign per simplex",
    ("collapse_rows", 0, "NaN"): "a NaN entry never merges, as the docstring says",
    ("WeightedRows", 1, "NaN"): "it carries the NaN rows that collapse_rows keeps apart",
}

#: records that the invariant functions fill; their fields are not scalar parameters
RECORDS = "records that sdd, scd, reduce_basis and the lattice invariants fill; they check nothing"

#: exported callables that read no array -> what they take instead
NO_ARRAYS = {
    **dict.fromkeys(["Exponent", "norm_exponent", "cell_to_basis", "inverse_design"], "scalars"),
    **dict.fromkeys(["amd", "neighbours", "pdd_periodic", "ppc", "deviations", "pda_dist",
                     "dedup", "lnd"], "PeriodicSet objects"),
    **dict.fromkeys(["bri", "trin", "mirror_backbone", "lipschitz_lambda"], "Backbone objects"),
    "pdd_dist": "WeightedRows objects",
    **dict.fromkeys(["sdd_dist", "scd_dist"], "Sdd or Scd objects"),
    **dict.fromkeys(["seq_metric", "time_shift"], "OnePeriodicSequence objects"),
    **dict.fromkeys(["psi", "rho", "fingerprint_dist", "fingerprint_equal"],
                    "PeriodicSequence1D objects"),
    **dict.fromkeys(["rm", "pm", "chiral", "projected_invariant", "slm"],
                    "lattice invariant objects"),
    **dict.fromkeys(["Rdd", "Sdd", "Ocd", "Scd", "ObtuseSuperbase2D", "RootInvariant2D",
                     "ProjectedInvariant2D"], RECORDS),
}


def _nan(a):
    a = np.array(a, dtype=float)
    a.flat[a.size // 2] = np.nan
    return a


MUTATIONS = {
    "NaN": _nan,
    "no rows": lambda a: np.zeros((0,) + np.shape(a)[1:]),
    "leading axis": lambda a: np.asarray(a, dtype=float)[None],
}


def _same(a, b):
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    if a is None or isinstance(a, str):
        return a == b
    return np.array_equal(a, b)


ARRAYS = [
    pytest.param(name, f, args, i, id=f"{name}-{i}") for name, f, args, arrays in CASES for i in arrays
]


@pytest.mark.parametrize("name, f, args, i", ARRAYS)
def test_nested_lists_give_the_valid_result(name, f, args, i):
    mutated = list(args)
    mutated[i] = np.asarray(args[i]).tolist()
    assert _same(f(*mutated), f(*args))


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("name, f, args, i", ARRAYS)
def test_bad_arrays_raise_value_error(name, f, args, i, mutation):
    mutated = list(args)
    mutated[i] = MUTATIONS[mutation](args[i])
    if (name, i, mutation) in ALLOWED:
        f(*mutated)
    else:
        with pytest.raises(ValueError):
            f(*mutated)


MULTI_ARRAYS = [
    pytest.param(name, f, args, arrays, id=name) for name, f, args, arrays in CASES if len(arrays) > 1
]


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("name, f, args, arrays", MULTI_ARRAYS)
def test_all_arrays_bad_at_once_raise_value_error(name, f, args, arrays, mutation):
    # arrays bad in the same way agree in shape, so a check of one against
    # the other passes them; each must still be read as bad on its own
    mutated = list(args)
    for i in arrays:
        mutated[i] = MUTATIONS[mutation](args[i])
    with pytest.raises(ValueError):
        f(*mutated)


def test_every_export_is_in_one_table():
    exported = {n for n in dir(g) if not n.startswith("_") and callable(getattr(g, n))}
    cased = {name for name, *_ in CASES}
    assert not cased & set(NO_ARRAYS)
    assert exported - cased - set(NO_ARRAYS) == set()
    assert set(NO_ARRAYS) <= exported
    assert {name for name, _, _ in ALLOWED} <= cased


#: modules that still read arrays themselves -> (count, why)
OWN_READS = {
    "periodic.py": (1, "_sets reads every basis and motif, Cartesian or fractional, before "
                       "_checked checks them as stacks"),
    "simplexwise.py": (1, "_simplices reads one simplex (n+1, n) or a stack (..., n+1, n), "
                          "where leading axes are a stack and not an error"),
}


def test_arrays_are_read_in_numcore():
    src = Path(g.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name == "numcore.py":
            continue
        count = len(re.findall(r"atleast_2d\(np\.asarray\(", path.read_text()))
        assert count == OWN_READS.get(path.name, (0, ""))[0], path.name


CUBIC = g.PeriodicSet(np.eye(3), [[0.0, 0.0, 0.0]])
CUBIC2 = g.PeriodicSet(1.1 * np.eye(3), [[0.0, 0.0, 0.0]])
DENSITY, DENSITY2 = g.PeriodicSequence1D(1.0, [0.1, 0.5]), g.PeriodicSequence1D(1.0, [0.2, 0.7])
SEQ2 = g.OnePeriodicSequence(1.0, SEQ[::-1])
RI, RI2 = (g.root_invariant(b) for b in ([[1.0, 0.0], [0.3, 1.1]], [[1.0, 0.1], [0.2, 1.4]]))
PI, PI2 = g.projected_invariant(RI), g.projected_invariant(RI2)

#: (name, callable, valid arguments, {position: kind of the scalar there})
SCALARS = [
    ("norm_exponent", g.norm_exponent, (2.0,), {0: "exponent"}),
    ("minkowski", g.minkowski, ([0.0, 1.0, 2.0], [1.0, 1.0, 1.0], 2.0), {2: "exponent"}),
    ("hausdorff", g.hausdorff, (X, Y, 2.0), {2: "exponent"}),
    ("bottleneck", g.bottleneck, (X, Y, 2.0), {2: "exponent"}),
    ("pdd", g.pdd, (X, 2, 0.0), {1: "count", 2: "real"}),
    ("collapse_rows", g.collapse_rows, (ROWS, [0.5, 0.5], 0.0), {2: "real"}),
    ("pdd_dist", g.pdd_dist, (g.pdd(X, 2), g.pdd(Y, 2), 2.0), {2: "exponent"}),
    ("sdd", g.sdd, (X, 1), {1: "count"}),
    ("cell_to_basis", g.cell_to_basis, (1.0, 1.2, 1.5, 80.0, 95.0, 100.0),
     dict.fromkeys(range(6), "real")),
    ("neighbours", g.neighbours, (CUBIC, 4), {1: "count"}),
    ("pdd_periodic", g.pdd_periodic, (CUBIC, 4, 0.0), {1: "count", 2: "real"}),
    ("amd", g.amd, (CUBIC, 4), {1: "count"}),
    ("deviations", g.deviations, (CUBIC, 4), {1: "count"}),
    ("pda_dist", g.pda_dist, (CUBIC, CUBIC2, 4, 2.0), {2: "count", 3: "exponent"}),
    ("lnd", g.lnd, (CUBIC, [CUBIC2], 4), {2: "count"}),
    ("dedup", g.dedup, ([CUBIC, CUBIC2], 4, 0.01, 0.01), {1: "count", 2: "real", 3: "real"}),
    ("PeriodicSequence1D", g.PeriodicSequence1D, (1.0, [0.1, 0.5]), {0: "real"}),
    ("psi", g.psi, (DENSITY, 1), {1: "count"}),
    ("rho", g.rho, (DENSITY, 1), {1: "count"}),
    ("fingerprint_equal", g.fingerprint_equal, (DENSITY, DENSITY2, 2, 1e-9),
     {2: "count or None", 3: "real"}),
    ("fingerprint_dist", g.fingerprint_dist, (DENSITY, DENSITY2, 2), {2: "count or None"}),
    ("OnePeriodicSequence", g.OnePeriodicSequence, (1.0, SEQ), {0: "real"}),
    ("seq_metric", g.seq_metric, (g.OnePeriodicSequence(1.0, SEQ), SEQ2, 2.0),
     {2: "exponent"}),
    ("mcd", g.mcd, (SEQ, SEQ[::-1], 2.0), {2: "exponent"}),
    ("mcs", g.mcs, (SEQ, SEQ[::-1], 2.0), {2: "exponent"}),
    ("subchain", g.subchain, (BRI, 2, 3), {1: "count", 2: "count"}),
    ("rm", g.rm, (RI, RI2, 2.0), {2: "exponent"}),
    ("pm", g.pm, (PI, PI2, 2.0), {2: "exponent"}),
    ("chiral", g.chiral, (PI, "D4", 2.0), {2: "exponent"}),
    ("inverse_design", g.inverse_design, (0.2, 0.3, 2.0, 1),
     {0: "real", 1: "real", 2: "real", 3: "sign"}),
]

SCALAR_MUTATIONS = {"NaN": math.nan, "inf": math.inf, "-1": -1, "string": "1", "None": None,
                    "1.5": 1.5, "10**400": 10**400}
#: mutation -> whether it applies to counts (True) or to the other kinds (False);
#: a count may be any large integer, as rho's periodic index is
SCALAR_SCOPE = {"1.5": True, "10**400": False}

#: (kind, mutation) -> why a parameter of that kind takes the value
SCALAR_ALLOWED = {
    ("exponent", "inf"): "q = inf is the Chebyshev exponent, which INF also names",
    ("exponent", "string"): "a string is read as the exponent it spells, as --q is",
    ("count or None", "None"): "None is the default, which the motif sizes give",
    ("sign", "-1"): "a negative sign asks for the mirror image",
}

#: parameter names of the kinds above; every export's parameter of one of
#: these names is a row of SCALARS
SCALAR_NAMES = {"k", "k_max", "h", "i", "j", "tol", "collapse_tol", "ada_threshold",
                "confirm_threshold", "period", "q", "ground_q", "size", "alpha", "beta",
                "gamma_deg", "x", "y", "sign"}


def _scalar_params():
    for name, f, args, kinds in SCALARS:
        for i, kind in kinds.items():
            for mutation in SCALAR_MUTATIONS:
                if SCALAR_SCOPE.get(mutation, "count" in kind) == ("count" in kind):
                    yield pytest.param(name, f, args, i, kind, mutation,
                                       id=f"{name}-{i}-{mutation}")


@pytest.mark.parametrize("name, f, args, i, kind, mutation", _scalar_params())
def test_bad_scalars_raise_value_error(name, f, args, i, kind, mutation):
    mutated = list(args)
    mutated[i] = SCALAR_MUTATIONS[mutation]
    if (kind, mutation) in SCALAR_ALLOWED:
        f(*mutated)
    else:
        with pytest.raises(ValueError):
            f(*mutated)


def test_every_scalar_parameter_is_in_the_table():
    rows = {(f, i) for _, f, _, kinds in SCALARS for i in kinds}
    for name in dir(g):
        f = getattr(g, name)
        if (name.startswith("_") or not callable(f) or name == "Exponent"
                or NO_ARRAYS.get(name) == RECORDS):
            continue
        for i, p in enumerate(inspect.signature(f).parameters):
            if p in SCALAR_NAMES:
                assert (f, i) in rows, (name, p)
    for _, f, args, _ in SCALARS:
        f(*args)


#: calls that returned, or ended in TypeError, ZeroDivisionError or
#: IndexError, before the scalar readers -> what the ValueError says
SCALAR_FAULTS = [
    ("pdd tol NaN", lambda: g.pdd(X, 2, math.nan), "tol must be finite"),
    ("pdd tol -1", lambda: g.pdd(X, 2, -1.0), "tol must be non-negative"),
    ("pdd tol string", lambda: g.pdd(X, 2, "0.1"), "tol must be a number"),
    ("dedup threshold string", lambda: g.dedup([CUBIC, CUBIC], k=3, ada_threshold="0.1"),
     "ada_threshold must be a number"),
    ("density period string", lambda: g.PeriodicSequence1D("1", [0.1]), "period must be a number"),
    ("sequence period string", lambda: g.OnePeriodicSequence("1", [[0.1, 0.0]]),
     "period must be a number"),
    ("cell angle 0", lambda: g.cell_to_basis(1, 1, 1, 90, 90, 0), "cell angle 0 out of range"),
    ("cell length string", lambda: g.cell_to_basis("1", 1, 1, 90, 90, 90),
     "cell lengths must be a number"),
    ("cell length NaN", lambda: g.cell_to_basis(math.nan, 1, 1, 90, 90, 90),
     "cell lengths must be finite"),
    ("cell length -1", lambda: g.cell_to_basis(-1, 1, 1, 90, 90, 90),
     "cell lengths must be positive"),
    ("fingerprint tol inf", lambda: g.fingerprint_equal(DENSITY, DENSITY2, tol=math.inf),
     "tol must be finite"),
    ("dedup ids", lambda: g.dedup([CUBIC, CUBIC], k=3, ids=["a"]), "1 ids for a dataset of 2"),
    ("lnd ids", lambda: g.lnd(CUBIC, [CUBIC, CUBIC], 3, ids=["a"]), "1 ids for a dataset of 2"),
    ("norm_exponent None", lambda: g.norm_exponent(None), "cannot interpret exponent None"),
    ("pdd_dist q None", lambda: g.pdd_dist(g.pdd(X, 2), g.pdd(Y, 2), None), "cannot interpret"),
    ("hausdorff q None", lambda: g.hausdorff(X, Y, None), "cannot interpret"),
    ("rm q None", lambda: g.rm(RI, RI2, None), "cannot interpret"),
    ("pm q None", lambda: g.pm(PI, PI2, None), "cannot interpret"),
    ("chiral q None", lambda: g.chiral(RI, "D2", None), "cannot interpret"),
    ("seq_metric q None", lambda: g.seq_metric(SEQ2, SEQ2, None), "cannot interpret"),
    ("design x string", lambda: g.inverse_design("0.2", 0.3, 1.0), "x must be a number"),
    ("design sign None", lambda: g.inverse_design(0.2, 0.3, 1.0, None), "sign must be a number"),
    ("design sign string", lambda: g.inverse_design(0.2, 0.3, 1.0, "1"), "sign must be a number"),
    ("spd_from_pdd m NaN", lambda: spd_from_pdd(g.pdd(X, 4), math.nan), "m must be an integer"),
    ("spd_from_pdd m string", lambda: spd_from_pdd(g.pdd(X, 4), "5"), "m must be an integer"),
    ("cell length 10**400", lambda: g.cell_to_basis(10**400, 1, 1, 90, 90, 90),
     "cell lengths must be finite"),
    ("density period 10**400", lambda: g.PeriodicSequence1D(10**400, [0.1]),
     "period must be finite"),
    ("hausdorff q 10**400", lambda: g.hausdorff(X, Y, 10**400), "exponent q is beyond"),
]


@pytest.mark.parametrize("call, message", [pytest.param(c, m, id=i) for i, c, m in SCALAR_FAULTS])
def test_former_scalar_faults_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()
