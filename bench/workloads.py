"""The two benchmark workloads and the four parts they are made of.

Each part is a fixed batch of ops built from seeded inputs; a workload runs
the batches of its two parts one after the other.  An op calls the public
``geoinv`` API (through module attributes, so the traced run's wrappers are
seen) and returns a JSON-able output; its check returns None when the output
is correct and a short reason otherwise.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import geoinv
import geoinv.cli  # noqa: F401  (not imported by the geoinv package itself)
import geninputs as gen

#: absolute tolerance of every check and of the reference comparison
TOL = 1e-9

#: workload -> its parts, run in this order
WORKLOADS = {
    "bulk_kernels": ("crystal_screen", "cloud_match"),
    "small_calls": ("simplex_compare", "chain_compare"),
}

WHY = {
    "bulk_kernels": (
        "few long ops: the dataset-scale CIF screen and transport LPs and "
        "matchings up to 160x160, where per-call overhead is negligible"
    ),
    "small_calls": (
        "many short ops: thousands of tiny bottleneck searches and Python "
        "loops, where per-call overhead dominates"
    ),
}

#: why each part is in the benchmark
PART_WHY = {
    "crystal_screen": (
        "dataset-scale crystal screen through the CLI: dedup of 300 CIFs then "
        "novelty queries; periodic neighbours/deviations and the O(N^2) filter"
    ),
    "cloud_match": (
        "large-kernel regime: PDD EMD up to 160x160 and bottleneck up to k=160 "
        "on clouds in R^3; never touches periodic"
    ),
    "simplex_compare": (
        "same numcore kernels in the opposite regime: thousands of tiny "
        "bottleneck searches plus canonicalisation in SDD/SCD"
    ),
    "chain_compare": (
        "short Python-loop ops in seq1p, density1d, backbone and lattice2d, "
        "which share no kernel with the other parts"
    ),
}


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    #: the part the op belongs to; set by ``prepare``
    part: str = ""


@dataclass
class Workload:
    name: str
    ops: list
    properties: dict = field(default_factory=dict)
    #: (part, number of ops) in batch order
    parts: list = field(default_factory=list)


# ---------------------------------------------------------------- checks


def check_bound(value, bound, what="distance"):
    """None if ``value`` <= ``bound`` + TOL, else the reason."""
    if value <= bound + TOL:
        return None
    return f"{what} {value!r} exceeds bound {bound!r}"


def first_failure(*reasons):
    return next((r for r in reasons if r), None)


def check_cloud(out, eps):
    """pdd_dist <= 2 eps, bottleneck <= eps, hausdorff <= bottleneck."""
    d, b, h = out
    return first_failure(
        check_bound(d, 2 * eps, "pdd_dist"),
        check_bound(b, eps, "bottleneck"),
        check_bound(h, b, "hausdorff"),
    )


def check_dedup(rows, planted):
    """Reported pairs equal the planted within-family pairs; each reported
    EMD lies below the family bound and above its ADA lower bound."""
    found = sorted(tuple(sorted(r[:2])) for r in rows)
    if found != planted:
        missing = len(set(planted) - set(found))
        extra = len(set(found) - set(planted))
        return f"dedup pairs differ from planted: {missing} missing, {extra} extra"
    for _, _, gap, value in rows:
        reason = first_failure(
            check_bound(value, 4 * gen.COPY_EPS, "family emd"),
            check_bound(gap, value, "ada gap"),
        )
        if reason:
            return reason
    return None


def check_novelty(out, source):
    """The nearest reference is the query's planted source at distance ~0."""
    nearest, value = out
    if nearest != source:
        return f"novelty returned {nearest}, planted source is {source}"
    return check_bound(value, 0.0, "lnd")


def check_lattices(rows):
    """Per lattice: rotation invariance of the root invariant, a non-negative
    chiral distance and the inverse_design round trip."""
    for row in rows:
        triple, sign, rot, chir, back, back_sign = row[0:3], row[3], row[4], row[5], row[6:9], row[9]
        reason = first_failure(
            check_bound(rot, 0.0, "rm to rotated copy"),
            check_bound(-chir, 0.0, "negated chiral distance"),
            check_bound(max(abs(x - y) for x, y in zip(triple, back)), 0.0, "round-trip error"),
            None if sign == back_sign else f"round trip changed sign {sign} -> {back_sign}",
        )
        if reason:
            return reason
    return None


def match_reference(out, ref, path="output"):
    """None if ``out`` equals ``ref`` (numbers within TOL), else the reason."""
    if isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            return f"{path}: shape differs from the reference"
        return first_failure(*(match_reference(o, r, f"{path}[{i}]") for i, (o, r) in enumerate(zip(out, ref))))
    if isinstance(ref, str) or isinstance(out, str):
        return None if out == ref else f"{path}: {out!r} != reference {ref!r}"
    return None if abs(out - ref) <= TOL else f"{path}: {out!r} != reference {ref!r}"


# ---------------------------------------------------------------- crystal_screen


def _cli(argv):
    """Run ``geoinv.cli.main`` in-process and return what it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = geoinv.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"geoinv {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def _csv_rows(text):
    return [line.split(",") for line in text.splitlines()[1:] if line]


def _dedup(corpus):
    text = _cli(["periodic", "dedup", str(corpus), "--k", str(gen.K_PERIODIC),
                 "--threshold", str(gen.THRESHOLD)])
    return [[a, b, float(gap), float(value)] for a, b, gap, value in _csv_rows(text)]


def _novelty(query, corpus):
    text = _cli(["periodic", "novelty", str(query), str(corpus), "--k", str(gen.K_PERIODIC)])
    (nearest, value), = _csv_rows(text)
    return [nearest, float(value)]


def crystal_screen(rng, workdir):
    data = gen.crystal_corpus(rng)
    corpus, qdir = workdir / "corpus", workdir / "queries"
    corpus.mkdir(parents=True)
    qdir.mkdir()
    for name, (cell, frac) in data["files"].items():
        (corpus / f"{name}.cif").write_text(gen.cif_text(name, cell, frac))
    planted = data["planted"]
    ops = [Op("dedup", lambda: _dedup(corpus), lambda out: check_dedup(out, planted))]
    for name, (cell, frac, source) in data["queries"].items():
        path = qdir / f"{name}.cif"
        path.write_text(gen.cif_text(name, cell, frac))
        ops.append(
            Op("novelty", lambda p=path: _novelty(p, corpus),
               lambda out, s=source: check_novelty(out, s))
        )
    n, sizes = len(data["files"]), np.array(data["sizes"])
    return Workload("crystal_screen", ops, {
        "files": n,
        "novelty_queries": len(data["queries"]),
        "decoy_share": len(data["decoys"]) / n,
        "planted_pair_share": len(planted) / (n * (n - 1) // 2),
        "motif_2_8_share": float(np.mean(sizes <= 8)),
        "motif_9_16_share": float(np.mean((sizes > 8) & (sizes <= 16))),
        "motif_17_24_share": float(np.mean(sizes > 16)),
    })


# ---------------------------------------------------------------- cloud_match


def _cloud_match(case):
    clouds, numcore = geoinv.clouds, geoinv.numcore
    k = gen.CLOUD_K
    d = clouds.pdd_dist(
        clouds.pdd(clouds.PointCloud(case["points"]), k),
        clouds.pdd(clouds.PointCloud(case["moved"]), k),
    )
    b = numcore.bottleneck(case["points"], case["perturbed"])
    h = numcore.hausdorff(case["points"], case["perturbed"])
    return [d, b, h]


def cloud_match(rng, workdir):
    cases = gen.cloud_ops(rng)
    ops = [
        Op("cloud", lambda c=c: _cloud_match(c), lambda out, e=c["eps"]: check_cloud(out, e))
        for c in cases
    ]
    sizes = np.array([len(c["points"]) for c in cases])
    return Workload("cloud_match", ops, {
        "ops": len(ops),
        "size_16_80_share": float(np.mean(sizes <= 80)),
        "size_120_160_share": float(np.mean(sizes >= 120)),
    })


# ---------------------------------------------------------------- simplex_compare


def _simplex(case):
    sw = geoinv.simplexwise
    if case["invariant"] == "sdd":
        return sw.sdd_dist(sw.sdd(case["points"], 2), sw.sdd(case["moved"], 2), mode=case["mode"])
    return sw.scd_dist(sw.scd(case["points"]), sw.scd(case["moved"]), mode=case["mode"])


def simplex_compare(rng, workdir):
    cases = gen.simplex_ops(rng)
    ops = [
        Op(f"{c['invariant']}{c['points'].shape[1]}_{c['mode']}", lambda c=c: _simplex(c),
           lambda out, e=c["eps"]: check_bound(out, 2 * e))
        for c in cases
    ]
    kinds = [op.kind for op in ops]
    return Workload("simplex_compare", ops, {
        "ops": len(ops),
        **{f"{k}_share": kinds.count(k) / len(ops) for k in sorted(set(kinds))},
    })


# ---------------------------------------------------------------- chain_compare


def _seq(case):
    s1 = geoinv.seq1p
    S = s1.OnePeriodicSequence(*case["s"])
    Q = s1.OnePeriodicSequence(*case["q"])
    return s1.seq_metric(S, Q, geoinv.numcore.INF, group=case["group"],
                         equivalence=case["equivalence"])


def seq_bound(case):
    """2 eps for isometry; the rigid strength term is Lipschitz with 4 eps."""
    return (4.0 if case["equivalence"] == "rigid" else 2.0) * case["eps"]


def _density(case):
    d1 = geoinv.density1d
    S = d1.PeriodicSequence1D(case["period"], case["centres"], case["radii"])
    T = d1.PeriodicSequence1D(case["period"], case["copy"], case["copy_radii"])
    return d1.fingerprint_dist(S, T)


def _backbone(case):
    bb = geoinv.backbone
    b = bb.bri(bb.Backbone(case["atoms"]))
    return [bb.bri_dist(b, bb.reconstruct(b)), bb.bri_dist(b, bb.Backbone(case["moved"]))]


def _lattices(case):
    lat = geoinv.lattice2d
    rows = []
    for v1, v2, w1, w2, group in case["bases"]:
        ri = lat.root_invariant(lat.reduce_basis(lat.Basis2D(v1, v2)))
        rotated = lat.root_invariant(lat.reduce_basis(lat.Basis2D(w1, w2)))
        pi = lat.projected_invariant(ri)
        back = lat.root_invariant(
            lat.reduce_basis(lat.inverse_design(pi.x, pi.y, ri.size, ri.sign))
        )
        rows.append([*ri.triple().tolist(), ri.sign, lat.rm(ri, rotated),
                     lat.chiral(ri, group), *back.triple().tolist(), back.sign])
    return rows


def _chain_op(kind, case):
    if kind == "seq":
        return Op("seq", lambda: _seq(case), lambda out: check_bound(out, seq_bound(case)))
    if kind == "density":
        return Op("density", lambda: _density(case), lambda out: check_bound(out, 0.0))
    if kind == "backbone":
        return Op("backbone", lambda: _backbone(case),
                  lambda out: first_failure(check_bound(out[0], 0.0, "bri round trip"),
                                            check_bound(out[1], 0.0, "bri of moved chain")))
    return Op("lattice", lambda: _lattices(case), check_lattices)


def chain_compare(rng, workdir):
    cases = gen.chain_ops(rng)
    ops = [_chain_op(kind, case) for kind, case in cases]
    kinds = [op.kind for op in ops]
    seqs = [c for k, c in cases if k == "seq"]
    dens = [c for k, c in cases if k == "density"]
    return Workload("chain_compare", ops, {
        "ops": len(ops),
        **{f"{k}_share": kinds.count(k) / len(ops) for k in sorted(set(kinds))},
        "seq_lcm_share": float(np.mean([c["lcm"] for c in seqs])),
        "seq_max_lcm": max(math.lcm(len(c["s"][1]), len(c["q"][1])) for c in seqs),
        "density_radii_share": float(np.mean([c["radii"] is not None for c in dens])),
    })


BUILDERS = {
    "crystal_screen": crystal_screen,
    "cloud_match": cloud_match,
    "simplex_compare": simplex_compare,
    "chain_compare": chain_compare,
}


def prepare(name, seed, workdir):
    """Build the fixed batch of workload ``name`` from ``seed``: its parts'
    ops in order, each part from its own generator seeded with ``seed``.
    Files go in ``workdir``."""
    ops, properties, parts = [], {}, []
    for part in WORKLOADS[name]:
        wl = BUILDERS[part](np.random.default_rng(seed), Path(workdir) / part)
        for op in wl.ops:
            op.part = part
        ops += wl.ops
        properties.update({f"{part}.{k}": v for k, v in wl.properties.items()})
        parts.append((part, len(wl.ops)))
    return Workload(name, ops, properties, parts)
