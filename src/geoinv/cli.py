"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data error.  Output is CSV by
default (12 significant digits) or JSON via ``--format json``, written to
stdout or ``--output PATH``.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import backbone as bb
from . import density1d, io, lattice2d, periodic, seq1p, simplexwise
from .clouds import pdd, pdd_dist, spd, srd
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


def _common(sub, reads="", k=None):
    """Attach the output options, and each of --k/--q/--tol named in ``reads``."""
    reads = reads.split()
    if "k" in reads:
        sub.add_argument("--k", type=int, default=k, help="neighbour count / order")
    if "q" in reads:
        sub.add_argument(
            "--q", type=_exponent, default="inf", help="Minkowski exponent (accepts 'inf')"
        )
    if "tol" in reads:
        sub.add_argument("--tol", type=float, default=0.0, help="collapse tolerance")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--output", type=Path, default=None)
    return sub


def _emit(args, csv_text, json_obj):
    text = csv_text if args.format == "csv" else io.to_json(json_obj)
    if args.output:
        args.output.write_text(text)
    else:
        sys.stdout.write(text)


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


# ---------------------------------------------------------------- cloud


def _cmd_cloud(args):
    C = _read_cloud(args.file)
    if args.action == "srd":
        v = srd(C)
        _emit(args, _matrix_csv([v]), {"srd": v})
    elif args.action == "spd":
        v = spd(C)
        _emit(args, _matrix_csv([v]), {"spd": v})
    elif args.action == "pdd":
        k = args.k if args.k is not None else len(C.points) - 1
        P = pdd(C, k, args.tol)
        rows = [[w, *r] for w, r in zip(P.weights, P.rows)]
        _emit(args, _matrix_csv(rows), {"weights": P.weights, "rows": P.rows})
    elif args.action == "compare":
        D = _read_cloud(args.file2)
        k = args.k if args.k is not None else min(len(C.points), len(D.points)) - 1
        d = pdd_dist(pdd(C, k, args.tol), pdd(D, k, args.tol), args.q)
        _emit(args, _matrix_csv([[d]], ["pdd_dist"]), {"pdd_dist": d})
    return 0


# ---------------------------------------------------------------- simplex


def _cmd_simplex(args):
    C = _read_cloud(args.file)
    if args.action == "sdd":
        X = simplexwise.sdd(C, args.order)
        rows = []
        for w, r in zip(X.weights, X.rdds):
            rows.append([w, *r.D[np.triu_indices(args.order, 1)], *r.R.ravel()])
        _emit(args, _matrix_csv(rows), {"weights": X.weights, "rows": [r[1:] for r in rows]})
    elif args.action == "scd":
        X = simplexwise.scd(C, center=not args.no_center)
        rows = [[w, *o.dvec, *o.cols.ravel(), *o.signs] for w, o in zip(X.weights, X.ocds)]
        _emit(args, _matrix_csv(rows), {"rows": rows})
    elif args.action == "compare":
        D = _read_cloud(args.file2)
        if args.invariant == "scd":
            d = simplexwise.scd_dist(
                simplexwise.scd(C, center=not args.no_center),
                simplexwise.scd(D, center=not args.no_center),
                mode=args.mode,
            )
        else:
            d = simplexwise.sdd_dist(
                simplexwise.sdd(C, args.order),
                simplexwise.sdd(D, args.order),
                mode=args.mode,
            )
        _emit(args, _matrix_csv([[d]], ["dist"]), {"dist": d})
    return 0


# ---------------------------------------------------------------- lattice


def _basis_of(vals):
    if len(vals) != 4:
        raise ValueError("a 2D basis needs 4 numbers: x1 y1 x2 y2")
    return lattice2d.Basis2D(np.array(vals[:2]), np.array(vals[2:]))


def _cmd_lattice(args):
    if args.action == "design":
        b = lattice2d.inverse_design(args.x, args.y, args.size, args.sign)
        _emit(
            args,
            _matrix_csv([[*b.v1, *b.v2]], ["v1x", "v1y", "v2x", "v2y"]),
            {"v1": b.v1, "v2": b.v2},
        )
        return 0
    sb = lattice2d.reduce_basis(_basis_of(args.basis))
    if args.action == "reduce":
        v = sb.vectors()
        _emit(
            args,
            _matrix_csv([[*v[0], *v[1], *v[2]]], ["v0x", "v0y", "v1x", "v1y", "v2x", "v2y"]),
            {"v0": v[0], "v1": v[1], "v2": v[2]},
        )
        return 0
    ri = lattice2d.root_invariant(sb)
    pi = lattice2d.projected_invariant(ri)
    if args.action == "invariant":
        _emit(
            args,
            _matrix_csv(
                [[ri.r12, ri.r01, ri.r02, ri.sign, pi.x, pi.y]],
                ["r12", "r01", "r02", "sign", "x", "y"],
            ),
            {"ri": ri.triple(), "sign": ri.sign, "pi": pi.pair()},
        )
    elif args.action == "metric":
        sb2 = lattice2d.reduce_basis(_basis_of(args.other))
        ri2 = lattice2d.root_invariant(sb2)
        if args.projected:
            d = lattice2d.pm(
                pi, lattice2d.projected_invariant(ri2), args.q, oriented=args.oriented
            )
        else:
            d = lattice2d.rm(ri, ri2, args.q, oriented=args.oriented)
        _emit(args, _matrix_csv([[d]], ["dist"]), {"dist": d})
    elif args.action == "chiral":
        inv = pi if args.projected else ri
        d = lattice2d.chiral(inv, args.group, args.q)
        _emit(args, _matrix_csv([[d]], ["chiral"]), {"chiral": d})
    elif args.action == "map":
        lat, lon = lattice2d.slm(pi)
        _emit(
            args,
            _matrix_csv([[lat, math.nan if lon is None else lon]], ["lat", "lon"]),
            {"lat": lat, "lon": lon},
        )
    return 0


# ---------------------------------------------------------------- periodic


def _cmd_periodic(args):
    if args.action == "dedup":
        sets, ids = _read_periodic_dir(args.file)
        pairs = periodic.dedup(
            sets, k=args.k, ada_threshold=args.threshold, confirm_threshold=args.threshold, ids=ids
        )
        rows = [[i, j, a, e] for i, j, a, e in pairs]
        _emit(
            args,
            io.to_csv(
                [[str(i), str(j), a, e] for i, j, a, e in pairs],
                ["id1", "id2", "ada_gap", "emd"],
            ),
            {"pairs": rows},
        )
        return 0
    if args.action == "novelty":
        S = _read_periodic(args.file)
        sets, ids = _read_periodic_dir(args.file2)
        d, best = periodic.lnd(S, sets, args.k, ids=ids)
        _emit(args, io.to_csv([[str(best), d]], ["nearest", "lnd"]), {"nearest": best, "lnd": d})
        return 0
    S = _read_periodic(args.file)
    if args.action == "pdd":
        P = periodic.pdd_periodic(S, args.k, args.tol)
        rows = [[w, *r] for w, r in zip(P.weights, P.rows)]
        _emit(args, _matrix_csv(rows), {"weights": P.weights, "rows": P.rows})
    elif args.action == "amd":
        v = periodic.amd(S, args.k)
        _emit(args, _matrix_csv([v]), {"amd": v})
    elif args.action == "ppc":
        v = periodic.ppc(S)
        _emit(args, _matrix_csv([[v]], ["ppc"]), {"ppc": v})
    elif args.action == "ada":
        v = periodic.deviations(S, args.k)["ada"]
        _emit(args, _matrix_csv([v]), {"ada": v})
    elif args.action == "compare":
        Q = _read_periodic(args.file2)
        d = periodic.pda_dist(S, Q, args.k, args.q)
        _emit(args, _matrix_csv([[d]], ["pda_dist"]), {"pda_dist": d})
    return 0


# ---------------------------------------------------------------- density


def _seq_of(args, suffix=""):
    centres = getattr(args, "points" + suffix)
    radii = getattr(args, "radii" + suffix)
    period = getattr(args, "period" + suffix)
    if period is None:
        period = args.period
    return density1d.PeriodicSequence1D(period, np.array(centres), radii and np.array(radii))


def _cmd_density(args):
    if args.action == "compare":
        S, Q = _seq_of(args), _seq_of(args, "2")
        eq = density1d.fingerprint_equal(S, Q, args.k)
        d = density1d.fingerprint_dist(S, Q, args.k)
        _emit(args, io.to_csv([[str(eq), d]], ["equal", "dist"]), {"equal": eq, "dist": d})
        return 0
    S = _seq_of(args)
    if args.action == "psi":
        f = density1d.psi(S, args.k)
        _emit(args, _matrix_csv(f.corners, ["t", "psi"]), {"corners": f.corners})
    elif args.action == "rho":
        v = density1d.rho(S, args.k)
        _emit(args, _matrix_csv([[v]], ["rho"]), {"rho": v})
    return 0


# ---------------------------------------------------------------- seq1


def _cmd_seq1(args):
    if args.action == "cdm":
        pts = np.loadtxt(args.file, ndmin=2)
        M = seq1p.cdm(pts)
        _emit(args, _matrix_csv(M), {"cdm": M})
    elif args.action == "metric":
        a = np.loadtxt(args.file, ndmin=2)
        b = np.loadtxt(args.file2, ndmin=2)
        S = seq1p.OnePeriodicSequence(args.period, a)
        Q = seq1p.OnePeriodicSequence(args.period if args.period2 is None else args.period2, b)
        d = seq1p.seq_metric(S, Q, args.q, group=args.group, equivalence=args.equivalence)
        _emit(args, _matrix_csv([[d]], ["dist"]), {"dist": d})
    return 0


# ---------------------------------------------------------------- backbone


def _cmd_backbone(args):
    if args.action == "reconstruct":
        b = np.loadtxt(args.file, delimiter=",", ndmin=2)
        S = bb.reconstruct(b)
        rows = np.column_stack([np.arange(1, S.m + 1), S.atoms.reshape(S.m, 9)])
        text = "\n".join("\t".join(io.fmt(v) for v in row) for row in rows) + "\n"
        _emit(args, text, {"atoms": S.atoms})
        return 0
    S = bb.read_tsv(args.file)
    if args.action == "bri":
        _emit(args, _matrix_csv(bb.bri(S)), {"bri": bb.bri(S)})
    elif args.action == "brain":
        v = bb.brain(S)
        _emit(args, _matrix_csv([v]), {"brain": v})
    elif args.action == "compare":
        Q = bb.read_tsv(args.file2)
        d = bb.bri_dist(S, Q)
        _emit(args, _matrix_csv([[d]], ["bri_dist"]), {"bri_dist": d})
    return 0


# ---------------------------------------------------------------- selftest


def _cmd_selftest(args):
    rng = np.random.default_rng(args.seed)
    checks = []
    # PDD isometry invariance on a random cloud
    from .clouds import PointCloud

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


# ---------------------------------------------------------------- wiring


def build_parser():
    p = _Parser(prog="geoinv", description="Geometric invariants and exact metrics.")
    sub = p.add_subparsers(dest="command", required=True)

    cloud = sub.add_parser("cloud", help="finite point-cloud invariants")
    cs = cloud.add_subparsers(dest="action", required=True)
    for name, reads in (("srd", ""), ("spd", ""), ("pdd", "k tol"), ("compare", "k q tol")):
        sp = _common(cs.add_parser(name), reads)
        sp.add_argument("file")
        if name == "compare":
            sp.add_argument("file2")
        sp.set_defaults(func=_cmd_cloud)

    simplex = sub.add_parser("simplex", help="simplexwise distributions")
    ss = simplex.add_subparsers(dest="action", required=True)
    for name in ("sdd", "scd", "compare"):
        sp = _common(ss.add_parser(name))
        sp.add_argument("file")
        if name == "compare":
            sp.add_argument("file2")
            sp.add_argument("--invariant", choices=("sdd", "scd"), default="sdd")
            sp.add_argument("--mode", choices=("emd", "lac"), default="emd")
        sp.add_argument("--order", type=int, default=2, help="simplex order h")
        sp.add_argument("--no-center", action="store_true")
        sp.set_defaults(func=_cmd_simplex)

    lattice = sub.add_parser("lattice", help="2D lattice classification")
    ls = lattice.add_subparsers(dest="action", required=True)
    for name in ("reduce", "invariant", "metric", "chiral", "map", "design"):
        sp = _common(ls.add_parser(name), "q" if name in ("metric", "chiral") else "")
        if name == "design":
            sp.add_argument("--x", type=float, required=True)
            sp.add_argument("--y", type=float, required=True)
            sp.add_argument("--size", type=float, required=True)
            sp.add_argument("--sign", type=int, default=1)
        else:
            sp.add_argument("--basis", type=float, nargs=4, required=True)
        if name == "metric":
            sp.add_argument("--other", type=float, nargs=4, required=True)
            sp.add_argument("--oriented", action="store_true")
        if name == "chiral":
            sp.add_argument("--group", choices=("D2", "D4", "D6"), default="D2")
        if name in ("metric", "chiral"):
            sp.add_argument("--projected", action="store_true")
        sp.set_defaults(func=_cmd_lattice)

    per = sub.add_parser("periodic", help="periodic crystal invariants")
    ps = per.add_subparsers(dest="action", required=True)
    for name, reads in (
        ("pdd", "k tol"), ("amd", "k"), ("ppc", ""), ("ada", "k"),
        ("compare", "k q"), ("dedup", "k"), ("novelty", "k"),
    ):
        sp = _common(ps.add_parser(name), reads, k=100)
        sp.add_argument("file")
        if name in ("compare", "novelty"):
            sp.add_argument("file2")
        if name == "dedup":
            sp.add_argument("--threshold", type=float, default=0.01)
        sp.set_defaults(func=_cmd_periodic)

    dens = sub.add_parser("density", help="1D density functions")
    ds = dens.add_subparsers(dest="action", required=True)
    for name in ("psi", "rho", "compare"):
        sp = _common(ds.add_parser(name), "k", k=None if name == "compare" else 0)
        sp.add_argument("--period", type=float, required=True)
        sp.add_argument("--points", type=float, nargs="+", required=True)
        sp.add_argument("--radii", type=float, nargs="+", default=None)
        if name == "compare":
            sp.add_argument("--period2", type=float, default=None)
            sp.add_argument("--points2", type=float, nargs="+", required=True)
            sp.add_argument("--radii2", type=float, nargs="+", default=None)
        sp.set_defaults(func=_cmd_density)

    seq = sub.add_parser("seq1", help="1-periodic sequence invariants")
    qs = seq.add_subparsers(dest="action", required=True)
    for name in ("cdm", "metric"):
        sp = _common(qs.add_parser(name), "q" if name == "metric" else "")
        sp.add_argument("file")
        if name == "metric":
            sp.add_argument("file2")
            sp.add_argument("--period", type=float, required=True)
            sp.add_argument("--period2", type=float, default=None)
            sp.add_argument("--group", choices=("cyclic", "dihedral"), default="cyclic")
            sp.add_argument("--equivalence", choices=("isometry", "rigid"), default="isometry")
        sp.set_defaults(func=_cmd_seq1)

    back = sub.add_parser("backbone", help="protein backbone invariants")
    bs = back.add_subparsers(dest="action", required=True)
    for name in ("bri", "brain", "compare", "reconstruct"):
        sp = _common(bs.add_parser(name))
        sp.add_argument("file")
        if name == "compare":
            sp.add_argument("file2")
        sp.set_defaults(func=_cmd_backbone)

    st = _common(sub.add_parser("selftest", help="quick randomized self checks"))
    st.add_argument("--seed", type=int, default=0)
    st.set_defaults(func=_cmd_selftest)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 1
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"geoinv: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
