"""Per-module spans timed from outside the program.

``Tracer.install`` replaces each public function named in ``LAYERS`` by a
timing wrapper wherever the function object appears in a ``geoinv`` module
namespace, re-imported aliases included (``clouds.emd``,
``periodic.pdd_dist``, ``seq1p.strength``, ...).  Nested calls therefore
become parent/child spans.  Spans are kept in memory; ``uninstall`` puts
the original objects back.  Nothing is patched unless ``install`` is called.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

import numpy as np

#: module -> public functions timed in the traced run
LAYERS = {
    "numcore": ["emd", "bottleneck", "bottleneck_from_costs", "hausdorff", "lac"],
    "clouds": ["pdd", "pdd_dist"],
    "simplexwise": ["sdd", "scd", "sdd_dist", "scd_dist", "rdd_max_metric",
                    "ocd_max_metric", "strength", "simplex_sign"],
    "periodic": ["neighbours", "deviations", "dedup", "lnd"],
    "io": ["parse_cif_lite"],
    "cli": ["main"],
    "seq1p": ["seq_metric", "cdm", "sign_row", "strengths_row"],
    "density1d": ["psi", "fingerprint_dist"],
    "backbone": ["bri", "bri_dist", "reconstruct"],
    "lattice2d": ["reduce_basis", "root_invariant", "rm", "chiral", "inverse_design"],
}

#: work counts read from a call's arguments and result
_COUNTS = {
    "numcore.emd": lambda args, kw, res: {
        "numcore.emd.cells": int(np.size(args[2] if len(args) > 2 else kw["costs"]))
    },
    "numcore.bottleneck_from_costs": lambda args, kw, res: {
        "numcore.bottleneck_from_costs.k_sum": len(args[0] if args else kw["costs"])
    },
    "periodic.dedup": lambda args, kw, res: {
        "periodic.dedup.pairs": len(args[0]) * (len(args[0]) - 1) // 2,
        "periodic.dedup.reported": len(res),
    },
}


def span_names():
    return [f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns]


class Tracer:
    """Collects spans ``(id, parent id, name, start, duration, self time)``."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._next_id = 0
        self._patched = []

    def reset(self):
        self.spans, self.counts = [], Counter()

    def install(self, package):
        """Wrap every function of LAYERS in all of ``package``'s modules."""
        prefix = package.__name__
        modules = [m for name, m in list(sys.modules.items())
                   if name == prefix or name.startswith(prefix + ".")]
        for module, fns in LAYERS.items():
            home = sys.modules[f"{prefix}.{module}"]
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{module}.{fn}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def _wrap(self, name, fn):
        count = _COUNTS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                self.spans.append((sid, parent, name, start, duration, duration - frame[1]))
            if count:
                self.counts.update(count(args, kwargs, result))
            return result

        return wrapper

    def summary(self):
        """Per-function calls and self time (ms), plus the derived counts."""
        out = {f"{n}.{k}": 0 for n in span_names() for k in ("calls", "self_ms")}
        name_of = {s[0]: (s[1], s[2]) for s in self.spans}
        for _, _, name, _, _, self_time in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.self_ms"] += 1000.0 * self_time

        def under(sid, name, depth):
            for _ in range(depth):
                sid = name_of.get(sid, (-1, None))[0]
            return name_of.get(sid, (-1, None))[1] == name

        def count(name, ancestor, depth=1):
            return sum(1 for s in self.spans if s[2] == name and under(s[0], ancestor, depth))

        out["numcore.emd.cells"] = self.counts["numcore.emd.cells"]
        out["numcore.bottleneck_from_costs.k_sum"] = self.counts["numcore.bottleneck_from_costs.k_sum"]
        pairs = self.counts["periodic.dedup.pairs"]
        confirm = count("clouds.pdd_dist", "periodic.dedup")
        queries = out["periodic.lnd.calls"]
        out["periodic.dedup.pairs"] = pairs
        out["periodic.dedup.confirm_calls"] = confirm
        out["periodic.dedup.filter_pass_ratio"] = confirm / pairs if pairs else 0.0
        out["periodic.dedup.confirm_yield"] = (
            self.counts["periodic.dedup.reported"] / confirm if confirm else 0.0
        )
        out["periodic.lnd.deviations_per_query"] = (
            count("periodic.deviations", "periodic.lnd") / queries if queries else 0.0
        )
        out["periodic.lnd.emd_per_query"] = (
            count("numcore.emd", "periodic.lnd", depth=2) / queries if queries else 0.0
        )
        return out
