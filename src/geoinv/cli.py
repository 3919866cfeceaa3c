"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data error.  Output is CSV by
default (12 significant digits) or JSON via ``--format json``, written to
stdout or ``--output PATH``.

``_COMMANDS`` maps each group and action to its handler and to the
arguments it reads, in the order they are added to the parser; an action
accepts no other option.  A handler takes the parsed arguments and returns
``(csv_text, json_obj)``; ``main`` alone writes the output.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import backbone as bb
from . import density1d, io, lattice2d, periodic, seq1p, simplexwise
from .clouds import PointCloud, pdd, pdd_dist, spd, srd
from .numcore import norm_exponent


class _Parser(argparse.ArgumentParser):
    """argparse parser reporting usage errors with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _exponent(text):
    try:
        return norm_exponent(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _read_cloud(path):
    return io.parse_xyz(Path(path).read_text())


def _read_periodic(path):
    return io.parse_cif_lite(Path(path).read_text())


def _read_periodic_dir(directory):
    """The sets and ids (file stems) of the CIFs in a directory, checked as
    stacks; a data error names the file at fault."""
    paths = sorted(Path(directory).glob("*.cif"))
    if not paths:
        raise ValueError(f"no CIF files in {directory}")
    sets = io._parse_cifs([p.read_text() for p in paths], [p.name for p in paths])
    return sets, [p.stem for p in paths]


def _matrix_csv(rows, header=None):
    return io.to_csv([list(map(float, r)) for r in np.atleast_2d(rows)], header)


def _scalar(name, v):
    return _matrix_csv([[v]], [name]), {name: v}


def _vector(name, v):
    return _matrix_csv([v]), {name: v}


def _weighted(P):
    rows = [[w, *r] for w, r in zip(P.weights, P.rows)]
    return _matrix_csv(rows), {"weights": P.weights, "rows": P.rows}


def _cloud_pdd(a):
    C = _read_cloud(a.file)
    return _weighted(pdd(C, len(C.points) - 1 if a.k is None else a.k, a.tol))


def _cloud_compare(a):
    C, D = _read_cloud(a.file), _read_cloud(a.file2)
    k = min(len(C.points), len(D.points)) - 1 if a.k is None else a.k
    return _scalar("pdd_dist", pdd_dist(pdd(C, k, a.tol), pdd(D, k, a.tol), a.q))


def _simplex_sdd(a):
    X = simplexwise.sdd(_read_cloud(a.file), a.order)
    upper = np.triu_indices(a.order, 1)
    rows = [[w, *r.D[upper], *r.R.ravel()] for w, r in zip(X.weights, X.rdds)]
    return _matrix_csv(rows), {"weights": X.weights, "rows": [r[1:] for r in rows]}


def _simplex_scd(a):
    X = simplexwise.scd(_read_cloud(a.file), center=not a.no_center)
    rows = [[w, *o.dvec, *o.cols.ravel(), *o.signs] for w, o in zip(X.weights, X.ocds)]
    return _matrix_csv(rows), {"rows": rows}


def _simplex_compare(a):
    C, D = _read_cloud(a.file), _read_cloud(a.file2)
    if a.invariant == "scd":
        X, Y = (simplexwise.scd(E, center=not a.no_center) for E in (C, D))
        return _scalar("dist", simplexwise.scd_dist(X, Y, mode=a.mode))
    X, Y = (simplexwise.sdd(E, a.order) for E in (C, D))
    return _scalar("dist", simplexwise.sdd_dist(X, Y, mode=a.mode))


def _reduced(vals):
    return lattice2d.reduce_basis(lattice2d.Basis2D(np.array(vals[:2]), np.array(vals[2:])))


def _invariants(vals):
    ri = lattice2d.root_invariant(_reduced(vals))
    return ri, lattice2d.projected_invariant(ri)


def _lattice_reduce(a):
    v = _reduced(a.basis).vectors()
    header = ["v0x", "v0y", "v1x", "v1y", "v2x", "v2y"]
    return _matrix_csv([[*v[0], *v[1], *v[2]]], header), {"v0": v[0], "v1": v[1], "v2": v[2]}


def _lattice_invariant(a):
    ri, pi = _invariants(a.basis)
    rows = [[ri.r12, ri.r01, ri.r02, ri.sign, pi.x, pi.y]]
    csv_text = _matrix_csv(rows, ["r12", "r01", "r02", "sign", "x", "y"])
    return csv_text, {"ri": ri.triple(), "sign": ri.sign, "pi": pi.pair()}


def _lattice_metric(a):
    ri, pi = _invariants(a.basis)
    ri2 = lattice2d.root_invariant(_reduced(a.other))
    if a.projected:
        d = lattice2d.pm(pi, lattice2d.projected_invariant(ri2), a.q, oriented=a.oriented)
    else:
        d = lattice2d.rm(ri, ri2, a.q, oriented=a.oriented)
    return _scalar("dist", d)


def _lattice_chiral(a):
    ri, pi = _invariants(a.basis)
    return _scalar("chiral", lattice2d.chiral(pi if a.projected else ri, a.group, a.q))


def _lattice_map(a):
    lat, lon = lattice2d.slm(_invariants(a.basis)[1])
    csv_text = _matrix_csv([[lat, math.nan if lon is None else lon]], ["lat", "lon"])
    return csv_text, {"lat": lat, "lon": lon}


def _lattice_design(a):
    b = lattice2d.inverse_design(a.x, a.y, a.size, a.sign)
    return _matrix_csv([[*b.v1, *b.v2]], ["v1x", "v1y", "v2x", "v2y"]), {"v1": b.v1, "v2": b.v2}


def _periodic_compare(a):
    S, Q = _read_periodic(a.file), _read_periodic(a.file2)
    return _scalar("pda_dist", periodic.pda_dist(S, Q, a.k, a.q))


def _periodic_dedup(a):
    sets, ids = _read_periodic_dir(a.file)
    pairs = periodic.dedup(
        sets, k=a.k, ada_threshold=a.threshold, confirm_threshold=a.threshold, ids=ids
    )
    rows = [[str(i), str(j), g, e] for i, j, g, e in pairs]
    return io.to_csv(rows, ["id1", "id2", "ada_gap", "emd"]), {"pairs": [list(p) for p in pairs]}


def _periodic_novelty(a):
    S = _read_periodic(a.file)
    sets, ids = _read_periodic_dir(a.file2)
    d, best = periodic.lnd(S, sets, a.k, ids=ids)
    return io.to_csv([[str(best), d]], ["nearest", "lnd"]), {"nearest": best, "lnd": d}


def _sequence(a, suffix=""):
    radii = getattr(a, "radii" + suffix)
    period = getattr(a, "period" + suffix)
    period = a.period if period is None else period
    return density1d.PeriodicSequence1D(
        period, np.array(getattr(a, "points" + suffix)), radii and np.array(radii)
    )


def _density_psi(a):
    f = density1d.psi(_sequence(a), a.k)
    return _matrix_csv(f.corners, ["t", "psi"]), {"corners": f.corners}


def _density_compare(a):
    S, Q = _sequence(a), _sequence(a, "2")
    eq = density1d.fingerprint_equal(S, Q, a.k)
    d = density1d.fingerprint_dist(S, Q, a.k)
    return io.to_csv([[str(eq), d]], ["equal", "dist"]), {"equal": eq, "dist": d}


def _seq1_cdm(a):
    M = seq1p.cdm(np.loadtxt(a.file, ndmin=2))
    return _matrix_csv(M), {"cdm": M}


def _seq1_metric(a):
    a1, b1 = np.loadtxt(a.file, ndmin=2), np.loadtxt(a.file2, ndmin=2)
    S = seq1p.OnePeriodicSequence(a.period, a1)
    Q = seq1p.OnePeriodicSequence(a.period if a.period2 is None else a.period2, b1)
    d = seq1p.seq_metric(S, Q, a.q, group=a.group, equivalence=a.equivalence)
    return _scalar("dist", d)


def _backbone_bri(a):
    B = bb.bri(bb.read_tsv(a.file))
    return _matrix_csv(B), {"bri": B}


def _backbone_compare(a):
    return _scalar("bri_dist", bb.bri_dist(bb.read_tsv(a.file), bb.read_tsv(a.file2)))


def _backbone_reconstruct(a):
    S = bb.reconstruct(np.loadtxt(a.file, delimiter=",", ndmin=2))
    rows = np.column_stack([np.arange(1, S.m + 1), S.atoms.reshape(S.m, 9)])
    return "\n".join("\t".join(io.fmt(v) for v in row) for row in rows) + "\n", {"atoms": S.atoms}


def _selftest(seed):
    """Print a PASS/FAIL line per randomized check; exit code 2 on a failure."""
    rng = np.random.default_rng(seed)
    checks = []
    # PDD isometry invariance on a random cloud
    pts = rng.normal(size=(6, 3))
    theta = rng.uniform(0, 2 * math.pi)
    c, s = math.cos(theta), math.sin(theta)
    R = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
    moved = pts @ R.T + rng.normal(size=3)
    d = pdd_dist(pdd(PointCloud(pts), 5), pdd(PointCloud(moved), 5))
    checks.append(("pdd_isometry", d < 1e-9))
    # lattice inverse-design round trip
    x, y = rng.uniform(0.05, 0.4), rng.uniform(0.05, 0.4)
    size = rng.uniform(0.5, 3.0)
    sb = lattice2d.inverse_design(x, y, size, 1)
    ri = lattice2d.root_invariant(sb)
    pi = lattice2d.projected_invariant(ri)
    ok = abs(pi.x - x) < 1e-9 and abs(pi.y - y) < 1e-9 and abs(ri.size - size) < 1e-9
    checks.append(("lattice_round_trip", ok))
    # density periodicity psi_{k+m}(t + 1/2) = psi_k(t)
    centres = np.sort(rng.uniform(0, 1, size=4))
    while np.diff(centres).min() < 0.05 or centres[0] + 1 - centres[-1] < 0.05:
        centres = np.sort(rng.uniform(0, 1, size=4))
    S = density1d.PeriodicSequence1D(1.0, centres)
    f1, f2 = density1d.psi(S, 1), density1d.psi(S, 5)
    ts = rng.uniform(0, 0.3, size=20)
    checks.append(("density_periodicity", bool(np.abs(f2(ts + 0.5) - f1(ts)).max() < 1e-9)))
    for name, ok in checks:
        print(f"{name}: {'PASS' if ok else 'FAIL'}")
    return 0 if all(ok for _, ok in checks) else 2


def _arg(*flags, **kw):
    return flags, kw


_K, _K0, _K100 = (
    _arg("--k", type=int, default=k, help="neighbour count / order") for k in (None, 0, 100)
)
_Q = _arg("--q", type=_exponent, default="inf", help="Minkowski exponent (accepts 'inf')")
_TOL = _arg("--tol", type=float, default=0.0, help="collapse tolerance")
_OUT = (_arg("--format", choices=("csv", "json"), default="csv"),
        _arg("--output", type=Path, default=None))
_FILE, _FILE2 = _arg("file"), _arg("file2")
_ORDER = _arg("--order", type=int, default=2, help="simplex order h")
_NO_CENTER = _arg("--no-center", action="store_true")
_BASIS = _arg("--basis", type=float, nargs=4, required=True)
_PROJECTED = _arg("--projected", action="store_true")
_DENSITY = (_arg("--period", type=float, required=True),
            _arg("--points", type=float, nargs="+", required=True),
            _arg("--radii", type=float, nargs="+", default=None))

_COMMANDS = {
    "cloud": ("finite point-cloud invariants", {
        "srd": (lambda a: _vector("srd", srd(_read_cloud(a.file))), [*_OUT, _FILE]),
        "spd": (lambda a: _vector("spd", spd(_read_cloud(a.file))), [*_OUT, _FILE]),
        "pdd": (_cloud_pdd, [_K, _TOL, *_OUT, _FILE]),
        "compare": (_cloud_compare, [_K, _Q, _TOL, *_OUT, _FILE, _FILE2]),
    }),
    "simplex": ("simplexwise distributions", {
        "sdd": (_simplex_sdd, [*_OUT, _FILE, _ORDER]),
        "scd": (_simplex_scd, [*_OUT, _FILE, _NO_CENTER]),
        "compare": (_simplex_compare, [
            *_OUT, _FILE, _FILE2,
            _arg("--invariant", choices=("sdd", "scd"), default="sdd"),
            _arg("--mode", choices=("emd", "lac"), default="emd"),
            _ORDER, _NO_CENTER,
        ]),
    }),
    "lattice": ("2D lattice classification", {
        "reduce": (_lattice_reduce, [*_OUT, _BASIS]),
        "invariant": (_lattice_invariant, [*_OUT, _BASIS]),
        "metric": (_lattice_metric, [
            _Q, *_OUT, _BASIS, _arg("--other", type=float, nargs=4, required=True),
            _arg("--oriented", action="store_true"), _PROJECTED,
        ]),
        "chiral": (_lattice_chiral, [
            _Q, *_OUT, _BASIS, _arg("--group", choices=("D2", "D4", "D6"), default="D2"),
            _PROJECTED,
        ]),
        "map": (_lattice_map, [*_OUT, _BASIS]),
        "design": (_lattice_design, [
            *_OUT, _arg("--x", type=float, required=True), _arg("--y", type=float, required=True),
            _arg("--size", type=float, required=True), _arg("--sign", type=int, default=1),
        ]),
    }),
    "periodic": ("periodic crystal invariants", {
        "pdd": (lambda a: _weighted(periodic.pdd_periodic(_read_periodic(a.file), a.k, a.tol)),
                [_K100, _TOL, *_OUT, _FILE]),
        "amd": (lambda a: _vector("amd", periodic.amd(_read_periodic(a.file), a.k)),
                [_K100, *_OUT, _FILE]),
        "ppc": (lambda a: _scalar("ppc", periodic.ppc(_read_periodic(a.file))), [*_OUT, _FILE]),
        "ada": (lambda a: _vector("ada", periodic.deviations(_read_periodic(a.file), a.k)["ada"]),
                [_K100, *_OUT, _FILE]),
        "compare": (_periodic_compare, [_K100, _Q, *_OUT, _FILE, _FILE2]),
        "dedup": (_periodic_dedup,
                  [_K100, *_OUT, _FILE, _arg("--threshold", type=float, default=0.01)]),
        "novelty": (_periodic_novelty, [_K100, *_OUT, _FILE, _FILE2]),
    }),
    "density": ("1D density functions", {
        "psi": (_density_psi, [_K0, *_OUT, *_DENSITY]),
        "rho": (lambda a: _scalar("rho", density1d.rho(_sequence(a), a.k)),
                [_K0, *_OUT, *_DENSITY]),
        "compare": (_density_compare, [
            _K, *_OUT, *_DENSITY,
            _arg("--period2", type=float, default=None),
            _arg("--points2", type=float, nargs="+", required=True),
            _arg("--radii2", type=float, nargs="+", default=None),
        ]),
    }),
    "seq1": ("1-periodic sequence invariants", {
        "cdm": (_seq1_cdm, [*_OUT, _FILE]),
        "metric": (_seq1_metric, [
            _Q, *_OUT, _FILE, _FILE2,
            _arg("--period", type=float, required=True),
            _arg("--period2", type=float, default=None),
            _arg("--group", choices=("cyclic", "dihedral"), default="cyclic"),
            _arg("--equivalence", choices=("isometry", "rigid"), default="isometry"),
        ]),
    }),
    "backbone": ("protein backbone invariants", {
        "bri": (_backbone_bri, [*_OUT, _FILE]),
        "brain": (lambda a: _vector("brain", bb.brain(bb.read_tsv(a.file))), [*_OUT, _FILE]),
        "compare": (_backbone_compare, [*_OUT, _FILE, _FILE2]),
        "reconstruct": (_backbone_reconstruct, [*_OUT, _FILE]),
    }),
}


def build_parser():
    p = _Parser(prog="geoinv", description="Geometric invariants and exact metrics.")
    sub = p.add_subparsers(dest="command", required=True)
    for group, (help_text, actions) in _COMMANDS.items():
        gs = sub.add_parser(group, help=help_text).add_subparsers(dest="action", required=True)
        for action, (handler, arguments) in actions.items():
            sp = gs.add_parser(action)
            for flags, kw in arguments:
                sp.add_argument(*flags, **kw)
            sp.set_defaults(handler=handler)
    st = sub.add_parser("selftest", help="quick randomized self checks")
    st.add_argument("--seed", type=int, default=0)
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 1
    try:
        if args.command == "selftest":
            return _selftest(args.seed)
        csv_text, json_obj = args.handler(args)
        text = csv_text if args.format == "csv" else io.to_json(json_obj)
        if args.output:
            args.output.write_text(text)
        else:
            sys.stdout.write(text)
    except (ValueError, OSError) as exc:
        print(f"geoinv: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
