"""Spans and counters around the public functions of each ``llcount`` layer.

The package binds names with ``from .x import y``, so a function is patched in
every module namespace that looks it up at call time (for example
``llcount.qsat.kernel_intersection_dim`` and ``llcount.cnf.
approx_partition_function``).  Each activation pushes a span on a stack; when
it ends, its duration is charged to the activation below it, so a span's self
time is its busy time minus the time its children cover.  Generator functions
get one span per generator object, busy only inside its ``next()`` calls.

Spans stay in memory as lists ``[call_id, name, parent, start, end, busy,
child]`` and are written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

# Spans are timed in process CPU time, like the calls (see worker.py).
clock = time.process_time

COUNT_METRICS = (
    "formats.parse_bytes", "cnf.weight_calls", "graphs.enum_calls",
    "graphs.connected_sets", "clusters.check_calls", "clusters.clusters",
    "qsat.weight_calls", "projectors.la_calls", "projectors.dense_d3_sum",
)
MAX_METRICS = ("projectors.dense_dim_max",)
# ratio metric -> (hit counter, lookup counter)
RATIO_METRICS = {
    "clusters.memo_hit_ratio": ("clusters.memo_hits", "clusters.memo_lookups"),
    "qsat.kdim_hit_ratio": ("qsat.kdim_hits", "qsat.kdim_lookups"),
}

# 0 call id, 1 name, 2 parent index, 3 start, 4 end, 5 busy, 6 child
CALL, NAME, PARENT, START, END, BUSY, CHILD = range(7)


class Tracer:
    """Span stack plus counters; ``call_id`` is set by the caller per call."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.call_id = 0

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([self.call_id, name, parent, None, None, 0.0, 0.0])
        return len(self.spans) - 1

    def enter(self, idx: int) -> float:
        self.stack.append(idx)
        now = clock()
        span = self.spans[idx]
        if span[START] is None:
            span[START] = now
        return now

    def leave(self, idx: int, began: float) -> None:
        now = clock()
        self.stack.pop()
        span = self.spans[idx]
        span[END] = now
        span[BUSY] += now - began
        if self.stack:
            self.spans[self.stack[-1]][CHILD] += now - began

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def observe_max(self, name: str, value: float) -> None:
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value

    def self_times(self, call_ids) -> Counter:
        """Self time per time metric over the spans of the given calls."""
        wanted = set(call_ids)
        out: Counter = Counter()
        for span in self.spans:
            if span[CALL] in wanted:
                out[TIME_METRICS[span[NAME]]] += span[BUSY] - span[CHILD]
        return out


def _dense_dim(ps, indices) -> int:
    union = set()
    for i in indices:
        union.update(ps.projectors[i].support)
    return ps.d ** len(union)


def _count_dense(tracer: Tracer, dim: int) -> None:
    tracer.count("projectors.la_calls")
    tracer.count("projectors.dense_d3_sum", dim ** 3)
    tracer.observe_max("projectors.dense_dim_max", dim)


def _calls(counter: str):
    return lambda tracer, args: tracer.count(counter)


def _parse(tracer: Tracer, args) -> None:
    tracer.count("formats.parse_bytes", len(args[0]))


def _kdim(tracer: Tracer, args) -> None:
    indices = tuple(args[1])
    if indices:
        _count_dense(tracer, _dense_dim(args[0], indices))


@dataclass(frozen=True)
class Target:
    """How one public function is traced.

    Its spans count towards the self-time ``metric``.  The wrapper replaces
    the function in each module of ``lookups``, the namespaces its callers
    look it up in.  ``on_call(tracer, args)`` updates counters at call time.
    A generator function names the counter bumped per yielded item.
    """

    metric: str
    lookups: tuple[str, ...]
    on_call: Callable | None = None
    item_counter: str | None = None


TARGETS = {
    ("cli", "main"): Target("cli.self_s", ("cli",)),
    ("formats", "parse_projector_spec"):
        Target("formats.parse_s", ("formats",), _parse),
    ("formats", "parse_weights_spec"):
        Target("formats.parse_s", ("formats",), _parse),
    ("projectors", "validate_projector"):
        Target("formats.validate_s", ("formats", "projectors")),
    ("cnf", "parse_dimacs"): Target("cnf.parse_s", ("cnf",)),
    ("cnf", "cnf_dependency_graph"): Target("cnf.graph_s", ("cnf",)),
    ("cnf", "cnf_polymer_weight"):
        Target("cnf.weight_s", ("cnf",), _calls("cnf.weight_calls")),
    ("cnf", "count_satisfying"): Target("cnf.pipeline_s", ("cnf",)),
    ("cnf", "approx_probability_intersection"):
        Target("cnf.pipeline_s", ("cnf",)),
    ("graphs", "greedy_coloring"):
        Target("graphs.color_s", ("cnf", "qsat", "cli")),
    ("graphs", "strong_product_with_complete"):
        Target("graphs.product_s", ("qsat",)),
    ("graphs", "enumerate_connected_subgraphs"):
        Target("graphs.enum_s", ("clusters", "formats"),
               _calls("graphs.enum_calls"), "graphs.connected_sets"),
    ("clusters", "check_weight_condition"):
        Target("clusters.check_s", ("clusters", "qsat", "cli"),
               _calls("clusters.check_calls")),
    ("clusters", "enumerate_clusters"):
        Target("clusters.enum_s", ("clusters",),
               item_counter="clusters.clusters"),
    ("clusters", "approx_partition_function"):
        Target("clusters.sum_s", ("cnf", "qsat", "cli")),
    ("qsat", "commuting_weight"):
        Target("qsat.weight_s", ("qsat",), _calls("qsat.weight_calls")),
    ("qsat", "general_ie_weight"):
        Target("qsat.weight_s", ("qsat",), _calls("qsat.weight_calls")),
    ("qsat", "detectability_weight"):
        Target("qsat.weight_s", ("qsat",), _calls("qsat.weight_calls")),
    ("qsat", "stability_check"): Target("qsat.checks_s", ("qsat",)),
    ("qsat", "suggest_delta_general"): Target("qsat.checks_s", ("qsat",)),
    ("qsat", "spectral_gap_or_error"): Target("qsat.checks_s", ("qsat",)),
    ("qsat", "approx_dim_commuting"): Target("qsat.pipeline_s", ("qsat",)),
    ("qsat", "approx_dim_general"): Target("qsat.pipeline_s", ("qsat",)),
    ("qsat", "approx_dim_detectability"): Target("qsat.pipeline_s", ("qsat",)),
    ("projectors", "kernel_intersection_dim"):
        Target("projectors.kdim_s", ("qsat",), _kdim),
    ("projectors", "normalized_product_trace"):
        Target("projectors.trace_s", ("qsat",),
               lambda t, a: _count_dense(t, _dense_dim(a[0], a[1]))),
    ("projectors", "verify_commuting"):
        Target("projectors.commute_s", ("qsat", "cli")),
    ("projectors", "spectral_gap"):
        Target("projectors.gap_s", ("qsat",),
               lambda t, a: _count_dense(t, a[0].d ** a[0].qudit_count)),
    ("projectors", "rank_normalized"):
        Target("projectors.rank_s", ("qsat",),
               lambda t, a: _count_dense(t, a[1] ** len(a[0].support))),
    ("projectors", "support_dependency_graph"):
        Target("projectors.graph_s", ("projectors", "qsat", "cli")),
}
# span name -> per-layer self-time metric
TIME_METRICS = {f"{home}.{fname}": target.metric
                for (home, fname), target in TARGETS.items()}


def _wrap_function(tracer: Tracer, name: str, fn, target: Target):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if target.on_call is not None:
            target.on_call(tracer, args)
        idx = tracer.open(name)
        began = tracer.enter(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.leave(idx, began)
    return wrapper


def _wrap_generator(tracer: Tracer, name: str, fn, target: Target):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if target.on_call is not None:
            target.on_call(tracer, args)
        gen = fn(*args, **kwargs)
        idx = tracer.open(name)

        def timed():
            while True:
                began = tracer.enter(idx)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.leave(idx, began)
                tracer.count(target.item_counter)
                yield item
        return timed()
    return wrapper


def install(tracer: Tracer):
    """Patch every target; return a function that restores the originals."""
    modules = {name: importlib.import_module(f"llcount.{name}")
               for name in ("cli", "formats", "cnf", "graphs", "clusters",
                            "qsat", "projectors")}
    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    for (home, fname), target in TARGETS.items():
        wrap = _wrap_function if target.item_counter is None else _wrap_generator
        wrapped = wrap(tracer, f"{home}.{fname}",
                       getattr(modules[home], fname), target)
        for module in target.lookups:
            patch(modules[module], fname, wrapped)

    # Hit/lookup counters only: these run once per polymer of every cluster,
    # far too often for a span each.
    oracle_weight = modules["clusters"].WeightOracle.weight

    def weight(self, polymer):
        tracer.count("clusters.memo_lookups")
        if polymer in self._memo:
            tracer.count("clusters.memo_hits")
        return oracle_weight(self, polymer)

    kdim_cached = modules["qsat"]._KernelDimCache.dim

    def dim(self, indices):
        tracer.count("qsat.kdim_lookups")
        if indices in self._memo:
            tracer.count("qsat.kdim_hits")
        return kdim_cached(self, indices)

    pair_commutes = modules["projectors"].pair_commutes

    def commutes(ps, i, j, *args, **kwargs):
        _count_dense(tracer, _dense_dim(ps, (i, j)))
        return pair_commutes(ps, i, j, *args, **kwargs)

    patch(modules["clusters"].WeightOracle, "weight", weight)
    patch(modules["qsat"]._KernelDimCache, "dim", dim)
    patch(modules["projectors"], "pair_commutes", commutes)

    def restore():
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
    return restore


def layer_metrics(tracer: Tracer, call_ids, passes: int,
                  ursell_memo_entries: int) -> dict[str, float]:
    """Per-layer metrics per pass over the given calls.

    Times and counts are totals over the calls divided by ``passes``; the
    counters must have been reset when the first of these calls started.
    """
    passes = max(passes, 1)
    times = tracer.self_times(call_ids)
    out = {name: times.get(name, 0.0) / passes
           for name in sorted(set(TIME_METRICS.values()))}
    for name in COUNT_METRICS:
        out[name] = tracer.counters.get(name, 0) / passes
    for name in MAX_METRICS:
        out[name] = tracer.maxima.get(name, 0)
    for name, (hits, lookups) in RATIO_METRICS.items():
        total = tracer.counters.get(lookups, 0)
        out[name] = tracer.counters.get(hits, 0) / total if total else 0.0
    out["clusters.ursell_memo_entries"] = ursell_memo_entries
    return out


def layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, the tracing overhead included."""
    units = {name: "s" for name in TIME_METRICS.values()}
    units.update({name: "count" for name in COUNT_METRICS + MAX_METRICS})
    units["formats.parse_bytes"] = "B"
    units.update({name: "ratio" for name in RATIO_METRICS})
    units["clusters.ursell_memo_entries"] = "count"
    units["trace.overhead_s"] = "s"
    return units
