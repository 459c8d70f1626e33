"""Spans around the program's public functions, recorded from outside.

The tracer wraps each listed function and rebinds the wrapper on every
module of the package that binds the original (``algebra``, ``srg`` and
``classify`` import ``verify_axioms``/``verify_involutive``/``srg_check``
by name, so patching the defining module alone would miss those calls).
Classes are traced through their ``__init__``, which is where they
validate.  Spans stay in memory; self times and the computed work counts
are derived from them when the run ends.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

# (layer, public name) of every traced function, in report order.
TARGETS = (
    ("cli", "main"),
    ("core", "MultivaluedGroup"),
    ("core", "loads"),
    ("core", "dumps"),
    ("core", "verify_axioms"),
    ("core", "verify_involutive"),
    ("core", "check_reciprocity"),
    ("core", "verify_all"),
    ("core", "signature"),
    ("core", "are_isomorphic"),
    ("core", "build_type1"),
    ("core", "build_type2"),
    ("algebra", "make_field"),
    ("algebra", "FiniteGroup"),
    ("algebra", "group_loads"),
    ("algebra", "generators_loads"),
    ("algebra", "close_action"),
    ("algebra", "orbits"),
    ("algebra", "coset_group"),
    ("srg", "srg_check"),
    ("srg", "paley_graph"),
    ("srg", "paley_tournament"),
    ("srg", "clique_union"),
    ("srg", "grid_graph"),
    ("srg", "vanlint_schrijver"),
    ("srg", "affine_polar"),
    ("srg", "affine_polar_plus_complement"),
    ("srg", "bilinear_forms_graph"),
    ("srg", "alternating_forms_graph"),
    ("srg", "graph_loads"),
    ("srg", "graph_from_edge_list"),
    ("srg", "graph_dumps"),
    ("srg", "complement"),
    ("srg", "mvgroup_from_params"),
    ("classify", "enumerate_families"),
    ("classify", "collisions"),
    ("classify", "catalogue_csv"),
    ("classify", "match_params"),
    ("classify", "classify_order3"),
)


def _count_pairs(counts, args, result, seconds):
    # Only a check that returns parameters has scanned every pair.
    if result is not None:
        v = args[0].v
        counts["srg.srg_check.pairs"] += v * (v - 1) // 2
        counts["srg.srg_check.full_s"] += seconds


def _count_quadruples(counts, args, result, seconds):
    counts["core.verify_axioms.quadruples"] += args[0].order ** 4


def _count_rows(counts, args, result, seconds):
    counts["classify.enumerate_families.rows"] += len(result)


def _count_bytes(name):
    def count(counts, args, result, seconds):
        counts[name] += len(args[0].encode("utf-8"))

    return count


# Work counts computed from input and output sizes, not measured.
COUNTERS = {
    "srg.srg_check": _count_pairs,
    "core.verify_axioms": _count_quadruples,
    "classify.enumerate_families": _count_rows,
    "srg.graph_loads": _count_bytes("srg.graph_loads.bytes"),
    "core.loads": _count_bytes("core.loads.bytes"),
}


class Tracer:
    """Records one span per call of a wrapped function.

    A span is [name, start, end, parent index]; parent is -1 for a span
    opened directly by the benchmark.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self._open = []
        self._patches = []

    def wrap(self, name, fn, counter=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
            self.spans.append(span)
            self._open.append(index)
            span[1] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._open.pop()
            if counter is not None:
                counter(self.counts, args, result, span[2] - span[1])
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package, modules):
        """Wrap every TARGETS entry; modules maps layer name to module."""
        bound = [package, *modules.values()]
        for layer, attr in TARGETS:
            name = f"{layer}.{attr}"
            original = getattr(modules[layer], attr)
            if isinstance(original, type):
                init = original.__init__
                self._patch(original, "__init__", self.wrap(name, init, COUNTERS.get(name)))
                continue
            wrapper = self.wrap(name, original, COUNTERS.get(name))
            for module in bound:
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self):
        """name -> (calls, self seconds): each span's duration minus the
        durations of the spans it directly contains."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals = defaultdict(lambda: [0, 0.0])
        for (name, _, _, _), seconds in zip(self.spans, own):
            totals[name][0] += 1
            totals[name][1] += seconds
        return {name: tuple(pair) for name, pair in totals.items()}

    def top_level_seconds(self):
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)


def layer_metrics(tracer: Tracer, wall_s: float, untraced_wall_s: float, replays: int):
    """Per-layer metrics per traced replay of the job list.

    harness.self_s is the traced wall time not covered by any span, so
    the self times of all spans plus harness.self_s equal trace.wall_s.
    """
    per = 1.0 / replays
    times = tracer.self_times()
    metrics = {}
    for layer, attr in TARGETS:
        calls, seconds = times.get(f"{layer}.{attr}", (0, 0.0))
        metrics[f"{layer}.{attr}.calls"] = (calls * per, "count")
        metrics[f"{layer}.{attr}.self_s"] = (seconds * per, "s")
    counts = tracer.counts

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    pairs = counts["srg.srg_check.pairs"]
    quads = counts["core.verify_axioms.quadruples"]
    rows = counts["classify.enumerate_families.rows"]
    metrics["srg.srg_check.pairs"] = (pairs * per, "pairs")
    metrics["srg.srg_check.pairs_per_s"] = (rate(pairs, counts["srg.srg_check.full_s"]), "pairs/s")
    metrics["core.verify_axioms.quadruples"] = (quads * per, "quadruples")
    metrics["core.verify_axioms.quads_per_s"] = (
        rate(quads, times.get("core.verify_axioms", (0, 0.0))[1]),
        "quadruples/s",
    )
    metrics["classify.enumerate_families.rows"] = (rows * per, "rows")
    metrics["classify.enumerate_families.rows_per_s"] = (
        rate(rows, times.get("classify.enumerate_families", (0, 0.0))[1]),
        "rows/s",
    )
    metrics["srg.graph_loads.bytes"] = (counts["srg.graph_loads.bytes"] * per, "B")
    metrics["core.loads.bytes"] = (counts["core.loads.bytes"] * per, "B")
    metrics["trace.wall_s"] = (wall_s * per, "s")
    metrics["harness.self_s"] = ((wall_s - tracer.top_level_seconds()) * per, "s")
    metrics["trace.overhead_ratio"] = (wall_s / untraced_wall_s - 1.0, "ratio")
    return metrics


# Metrics whose values are computed from input and output sizes rather
# than measured; a change in them means the program did different work.
COMPUTED = (
    "srg.srg_check.pairs",
    "srg.srg_check.pairs_per_s",
    "core.verify_axioms.quadruples",
    "core.verify_axioms.quads_per_s",
    "classify.enumerate_families.rows",
    "classify.enumerate_families.rows_per_s",
    "srg.graph_loads.bytes",
    "core.loads.bytes",
)
