"""geoinv benchmark: seeded workloads against the public API, checked outputs.

    python3 bench/run.py --workload bulk_kernels --seed 0 --seconds 55 --trace 0

One run is one fresh process and one closed loop with a single client: the
workload's fixed batch of ops (the ops of its two parts, one part after the
other) runs op after op, and batches repeat until ``--seconds`` have passed.
Every op's output is checked.  The last line of stdout is a JSON object
``{"correct", "attempted", "failed", "metrics"}``; ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-module
calls and self times from a run whose public functions are wrapped.
``--workload all`` runs every workload, each in its own process.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# BLAS/OpenMP pools are pinned to one thread before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"
REFERENCE = HERE / "reference_seed0.json"
#: the keys of workloads.WORKLOADS, named here so that the arguments parse
#: before geoinv is imported
WORKLOADS = ("bulk_kernels", "small_calls")
PARTS = ("crystal_screen", "cloud_match", "simplex_compare", "chain_compare")
#: the seed whose outputs are compared with REFERENCE
DEFAULT_SEED = 0
#: fresh processes that repeat the set-up; setup_s is the median with this run's own
SETUP_PROBES = 4
#: latency percentiles are reported over at least this many ops per run
MIN_OPS_FOR_P90 = 100


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only import and build the inputs; print the elapsed time")
    p.add_argument("--write-reference", action="store_true",
                   help=f"store the first batch's outputs in {REFERENCE.name}")
    return p.parse_args(argv)


def run_op(op):
    """(seconds, output, failure reason or None); the check is not timed."""
    start = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # a failing op is counted, not fatal
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    try:
        reason = op.check(out)
    except Exception as exc:
        reason = f"check raised {type(exc).__name__}: {exc}"
    return elapsed, out, reason


class Loop:
    """Runs whole batches until a time budget is spent; records every op."""

    def __init__(self, ops, reference=None, match=None):
        """``match(output, expected)`` compares the first batch with
        ``reference`` and returns a failure reason or None."""
        self.ops = ops
        self.reference = reference
        self.match = match
        self.batch_walls, self.latencies, self.failures = [], [], []
        #: per batch: part -> seconds spent in that part's ops
        self.part_walls = []
        self.first_outputs = None

    @property
    def attempted(self):
        return len(self.latencies)

    def run(self, seconds, on_batch=None):
        """Run batches while the next one is expected to end within ``seconds``
        (at least one); returns their wall times."""
        start = time.perf_counter()
        walls = []
        while not walls or time.perf_counter() - start + statistics.mean(walls) <= seconds:
            outputs, wall, parts = [], 0.0, {}
            for i, op in enumerate(self.ops):
                elapsed, out, reason = run_op(op)
                if reason is None and self.reference is not None and self.first_outputs is None:
                    reason = self.match(out, self.reference[i])
                wall += elapsed
                parts[op.part] = parts.get(op.part, 0.0) + elapsed
                outputs.append(out)
                self.latencies.append(elapsed)
                if reason:
                    self.failures.append(f"{op.kind}[{i}]: {reason}")
            if self.first_outputs is None:
                self.first_outputs = outputs
            walls.append(wall)
            self.part_walls.append(parts)
            if on_batch:
                on_batch()
        self.batch_walls += walls
        return walls


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_probe(name, seed):
    """Seconds from a fresh process's start until its first op could run."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def quantile(values, q):
    """Inclusive q-quantile, as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=100, method="inclusive")[round(100 * q) - 1]


def load_reference(parts, seed):
    """The stored outputs of the ``(part, n_ops)`` parts, in batch order."""
    if seed != DEFAULT_SEED or not REFERENCE.is_file():
        return None
    data, ref = json.loads(REFERENCE.read_text()), []
    for part, n_ops in parts:
        if len(data.get(part, ())) != n_ops:
            raise SystemExit(f"{REFERENCE.name} has no {n_ops}-op entry for {part}")
        ref += data[part]
    return ref


def write_reference(parts, outputs):
    data = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    for part, n_ops in parts:
        data[part], outputs = outputs[:n_ops], outputs[n_ops:]
    REFERENCE.write_text(json.dumps(data, indent=None, separators=(",", ":")) + "\n")


def part_walls(batches):
    """Median seconds per batch spent in each part (0 for parts not run)."""
    return {p: statistics.median(b.get(p, 0.0) for b in batches) for p in PARTS}


def end_to_end(loop, setup_s):
    lat_ms = [1000.0 * t for t in loop.latencies]
    metrics = {
        "wall_s": (statistics.median(loop.batch_walls), "s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p90_ms": (quantile(lat_ms, 0.9), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    if loop.attempted < MIN_OPS_FOR_P90:
        print(f"note: {loop.attempted} ops in this run; op_p90_ms has fewer than "
              "10 samples beyond it")
    return metrics


def traced(loop, seconds, spans_path):
    """Untraced batches for half the time, then traced batches; per-layer
    metrics are the first traced batch's counts and median self times.  The
    first traced batch's spans are written to ``spans_path``."""
    import geoinv
    import spans

    plain = loop.run(seconds / 2)
    plain_parts = part_walls(loop.part_walls)
    tracer = spans.Tracer()
    summaries = []

    def collect():
        summaries.append(tracer.summary())
        if len(summaries) == 1:
            write_spans(spans_path, tracer.spans)
        tracer.reset()

    tracer.install(geoinv)
    try:
        with_trace = loop.run(seconds / 2, on_batch=collect)
    finally:
        tracer.uninstall()
    first = summaries[0]
    metrics = {}
    for key, value in first.items():
        if key.endswith(".self_ms"):
            metrics[key] = (statistics.median(s[key] for s in summaries), "ms")
        elif key.endswith(("_ratio", "_yield")):
            metrics[key] = (value, "ratio")
        else:
            metrics[key] = (value, "count")
    metrics["trace.overhead_s"] = (statistics.median(with_trace) - statistics.median(plain), "s")
    for part, wall in plain_parts.items():
        metrics[f"part.{part}.wall_s"] = (wall, "s")
    return metrics


def write_spans(path, records):
    keys = ("id", "parent", "name", "start", "duration", "self")
    path.write_text(json.dumps({"fields": keys, "spans": records}) + "\n")


def run_all(args):
    """Every workload in its own fresh process; prints one row per metric."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"\n{'workload':<16} {'metric':<44} {'value':>14} unit")
    for name, res in results.items():
        for metric, m in res["metrics"].items():
            print(f"{name:<16} {metric:<44} {m['value']:>14.6g} {m['unit']}")
        print(f"{name:<16} {'failed_ratio':<44} {res['failed'] / res['attempted']:>14.6g} "
              f"ratio ({res['failed']}/{res['attempted']})")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "geoinv" / "__init__.py").is_file():
        print(f"geoinv sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        wl = workloads.prepare(args.workload, args.seed, workdir)
        own_setup = time.perf_counter() - T0
        if args.setup_probe:
            print(own_setup)
            return 0
        print(f"workload {wl.name} seed {args.seed}: {workloads.WHY[wl.name]}")
        for part, n_ops in wl.parts:
            print(f"part {part} ({n_ops} ops): {workloads.PART_WHY[part]}")
        for key, value in wl.properties.items():
            print(f"input {key} {value:.4g}" if isinstance(value, float) else f"input {key} {value}")
        reference = None if args.write_reference else load_reference(wl.parts, args.seed)
        loop = Loop(wl.ops, reference, workloads.match_reference)
        if args.trace:
            metrics = traced(loop, args.seconds, WORK / f"spans_{wl.name}_seed{args.seed}.json")
        else:
            loop.run(args.seconds)
            probes = [setup_probe(wl.name, args.seed) for _ in range(SETUP_PROBES)]
            metrics = end_to_end(loop, statistics.median([own_setup, *probes]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.write_reference:
        write_reference(wl.parts, loop.first_outputs)
    for reason in loop.failures[:10]:
        print(f"FAILED {reason}", file=sys.stderr)
    failed = len(loop.failures)
    for key, (value, unit) in metrics.items():
        print(f"metric {key} {value:.6g} {unit}")
    print(f"metric failed_ratio {failed / loop.attempted:.6g} ratio ({failed}/{loop.attempted} ops)")
    print("batches of", len(wl.ops), "ops, seconds each:", " ".join(f"{w:.3f}" for w in loop.batch_walls))
    for part, wall in part_walls(loop.part_walls).items():
        if wall:
            print(f"part {part} median seconds per batch {wall:.4g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
