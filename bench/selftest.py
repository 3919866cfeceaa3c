"""Tests of the benchmark itself (not of geoinv).

    python3 -m pytest bench/selftest.py -q

The file name keeps these out of the repository's own test collection.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import geoinv  # noqa: E402
import geninputs as gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

GENERATORS = [gen.crystal_corpus, gen.cloud_ops, gen.simplex_ops, gen.chain_ops]


def _flatten(obj):
    """Every leaf of a generator's output, arrays as lists."""
    if isinstance(obj, dict):
        return [(k, _flatten(v)) for k, v in sorted(obj.items())]
    if isinstance(obj, (list, tuple)):
        return [_flatten(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


@pytest.mark.parametrize("generate", GENERATORS, ids=lambda g: g.__name__)
def test_generator_is_deterministic_per_seed(generate):
    first = _flatten(generate(np.random.default_rng(7)))
    assert first == _flatten(generate(np.random.default_rng(7)))
    assert first != _flatten(generate(np.random.default_rng(8)))


def _namespace_snapshot():
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name == "geoinv" or name.startswith("geoinv.")
        for attr, value in vars(mod).items()
        if callable(value)
    }


def _small_traced_batch(tracer):
    """A few ops of every module, plus dedup/lnd on a small corpus."""
    rng = np.random.default_rng(3)
    data = gen.crystal_corpus(rng)
    names = sorted(data["files"])[:12]
    sets = [
        geoinv.periodic.PeriodicSet.from_fractional(gen.cell_basis(*cell), frac)
        for cell, frac in (data["files"][n] for n in names)
    ]
    ops = workloads.cloud_match(rng, None).ops[:2]
    ops += workloads.simplex_compare(rng, None).ops[:2]
    ops += workloads.chain_compare(rng, None).ops[:8]
    tracer.install(geoinv)
    try:
        for op in ops:
            assert op.check(op.run()) is None
        geoinv.periodic.dedup(sets, k=20, ada_threshold=0.05, confirm_threshold=0.05)
        geoinv.periodic.lnd(sets[0], sets[1:], 20)
    finally:
        tracer.uninstall()
    return tracer.summary()


def test_counts_repeat_exactly_across_traced_runs():
    first, second = (_small_traced_batch(spans.Tracer()) for _ in range(2))
    counts = {k: v for k, v in first.items() if not k.endswith("self_ms")}
    assert counts == {k: v for k, v in second.items() if not k.endswith("self_ms")}
    assert counts["periodic.dedup.pairs"] == 12 * 11 // 2
    assert counts["periodic.lnd.deviations_per_query"] == 12
    assert counts["periodic.lnd.emd_per_query"] == 11
    assert counts["numcore.emd.calls"] > 0 and counts["numcore.emd.cells"] > 0


def test_install_wraps_aliases_and_uninstall_restores_originals():
    before = _namespace_snapshot()
    emd, bfc = geoinv.numcore.emd, geoinv.numcore.bottleneck_from_costs
    tracer = spans.Tracer()
    tracer.install(geoinv)
    try:
        assert geoinv.clouds.emd is geoinv.numcore.emd is not emd
        assert geoinv.simplexwise.bottleneck_from_costs is not bfc
        assert geoinv.periodic.pdd_dist is geoinv.clouds.pdd_dist
        assert geoinv.seq1p.strength is geoinv.simplexwise.strength
        assert geoinv.pdd_dist is geoinv.clouds.pdd_dist
    finally:
        tracer.uninstall()
    after = _namespace_snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_untraced_ops_patch_nothing():
    before = _namespace_snapshot()
    for op in workloads.chain_compare(np.random.default_rng(1), None).ops[:5]:
        op.run()
    after = _namespace_snapshot()
    assert all(after[key] is before[key] for key in before)


def test_checkers_flag_wrong_values():
    ok = workloads.check_cloud([0.01, 0.004, 0.003], eps=0.005)
    assert ok is None
    assert workloads.check_cloud([0.011, 0.004, 0.003], eps=0.005)  # pdd_dist > 2 eps
    assert workloads.check_cloud([0.01, 0.006, 0.003], eps=0.005)  # bottleneck > eps
    assert workloads.check_cloud([0.01, 0.004, 0.0041], eps=0.005)  # hausdorff > bottleneck

    planted = [("a", "b"), ("a", "c"), ("b", "c")]
    rows = [["a", "b", 0.001, 0.002], ["a", "c", 0.001, 0.003], ["b", "c", 0.0, 0.001]]
    assert workloads.check_dedup(rows, planted) is None
    assert workloads.check_dedup(rows[:2], planted)  # a planted pair missing
    assert workloads.check_dedup(rows + [["a", "d", 0.0, 0.009]], planted)  # a decoy reported
    assert workloads.check_dedup([rows[0], rows[1], ["b", "c", 0.0, 0.02]], planted)  # emd too big
    assert workloads.check_dedup([rows[0], rows[1], ["b", "c", 0.002, 0.001]], planted)  # gap > emd

    assert workloads.check_novelty(["c0001", 1e-12], "c0001") is None
    assert workloads.check_novelty(["c0002", 1e-12], "c0001")
    assert workloads.check_novelty(["c0001", 1e-3], "c0001")

    good = [1.0, 2.0, 3.0, 1, 0.0, 0.5, 1.0, 2.0, 3.0, 1]
    assert workloads.check_lattices([good]) is None
    assert workloads.check_lattices([good[:4] + [1e-6] + good[5:]])  # not rotation invariant
    assert workloads.check_lattices([good[:5] + [-0.1] + good[6:]])  # negative chiral distance
    assert workloads.check_lattices([good[:6] + [1.0, 2.0, 3.001, 1]])  # round trip broken
    assert workloads.check_lattices([good[:9] + [-1]])  # sign flipped

    case = {"equivalence": "isometry", "eps": 0.01}
    assert workloads.check_bound(0.02, workloads.seq_bound(case)) is None
    assert workloads.check_bound(0.0201, workloads.seq_bound(case))

    ref = [["c1", "c2", 0.5, 0.25]]
    assert workloads.match_reference([["c1", "c2", 0.5, 0.25 + 1e-12]], ref) is None
    assert workloads.match_reference([["c1", "c2", 0.5, 0.25 + 1e-6]], ref)
    assert workloads.match_reference([["c1", "c3", 0.5, 0.25]], ref)
    assert workloads.match_reference([], ref)


def test_metric_names_match_benchmark_json():
    import json

    import run

    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert set(run.PARTS) == set(workloads.BUILDERS) == {
        part for parts in workloads.WORKLOADS.values() for part in parts
    }
    assert {m["name"] for m in spec["per_layer"]} == set(spans.Tracer().summary()) | {
        "trace.overhead_s"
    } | {f"part.{part}.wall_s" for part in run.PARTS}
    loop = run.Loop([])
    loop.batch_walls, loop.latencies = [1.0, 1.2], [0.1] * 120
    assert {m["name"] for m in spec["end_to_end"]} == set(run.end_to_end(loop, 0.5))
