"""Span tracing around the package's public functions, from outside it.

``Tracer.install`` replaces each function named in ``LAYERS`` with a
wrapper wherever a module of the package holds it as an attribute (or a
class holds it, for methods and their aliases such as ``__rmul__``).
Each call records a span: name, start, end and parent, the span open
when it began.  A function that returns an iterator gets it back wrapped,
and each ``next()`` on it is a span of its own, so a generator's time is
counted where its items are produced.  Spans stay in memory until
``write``; self time is a span's duration minus the time its child spans
cover.

Tracing costs a few microseconds per call, so its numbers come from a
run of their own, never from the run that gives the end-to-end metrics.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections.abc import Iterator
from pathlib import Path

# (module, function, metrics reported, what the layer should move).
# The last field is the prediction written before any optimisation: a
# change to that layer should show in those end-to-end numbers, and in
# no others.
LAYERS = (
    ("cli", "main", ("self_s",),
     "argparse, formatting and printing: latency_p50_ms on count (big-integer str) and on list"),
    ("paths", "enumerate_deutsch", ("items", "self_s"),
     "ops_per_s, latency_p50_ms, first_output_ms_p50 on list; ops_per_s on crosscheck; "
     "no change on count, forms"),
    ("paths", "enumerate_nondecreasing_filter", ("calls", "items", "self_s"),
     "ops_per_s, latency_p50_ms, first_output_ms_p50 on list; ops_per_s on crosscheck"),
    ("paths", "is_nondecreasing", ("calls", "self_s"), "ops_per_s, latency_p50_ms on list"),
    ("paths", "valley_levels", ("self_s",), "ops_per_s, latency_p50_ms on list"),
    ("paths", "validate", ("self_s",), "ops_per_s, latency_p50_ms on list"),
    ("paths", "render_path", ("self_s",), "ops_per_s, latency_p50_ms on list"),
    ("paths", "path_to_json", ("self_s",), "ops_per_s, latency_tail_ms on list (--json ops)"),
    ("paths", "iter_decompositions", ("items", "self_s"), "ops_per_s on crosscheck (verify)"),
    ("paths", "compose", ("self_s",), "latency_p50_ms on crosscheck (path ops)"),
    ("paths", "decompose", ("self_s",), "latency_p50_ms on crosscheck (tree ops)"),
    ("paths", "enumerate_nondecreasing_direct", ("self_s",), "ops_per_s on crosscheck (verify)"),
    ("trees", "path_to_tree", ("calls", "self_s"), "latency_p50_ms on crosscheck"),
    ("trees", "tree_to_path", ("calls", "self_s"), "latency_p50_ms on crosscheck"),
    ("trees", "tree_statistics", ("self_s",), "ops_per_s on crosscheck (verify)"),
    ("trees", "tree_from_json", ("self_s",), "latency_p50_ms on crosscheck"),
    ("trees", "tree_to_json", ("self_s",), "latency_p50_ms on crosscheck"),
    ("numbers", "pell", ("self_s",),
     "latency_p50_ms on count (closed ops); no change on list, forms"),
    ("numbers", "half_companion_pell", ("self_s",), "latency_p50_ms on count (closed ops)"),
    ("numbers", "count_nondecreasing_quadratic", ("self_s",),
     "latency_p50_ms on count (closed ops); latency_tail_ms on crosscheck (table)"),
    ("numbers", "count_nondecreasing_closed", ("calls", "self_s"),
     "latency_p50_ms on count (closed ops); no change on list, forms"),
    ("series", "RationalGF.coefficients", ("calls", "items", "self_s"),
     "ops_per_s, latency_tail_ms on count (series ops); latency_p50_ms on forms (rational forms)"),
    ("series", "TruncatedSeries.__mul__", ("calls", "self_s"),
     "ops_per_s, latency_tail_ms on forms; ops_per_s on crosscheck; no change on count"),
    ("series", "TruncatedSeries.__truediv__", ("calls", "self_s"),
     "ops_per_s, latency_tail_ms on forms; ops_per_s on crosscheck; no change on count"),
    ("series", "gf_coefficients", ("self_s",), "ops_per_s on forms"),
    ("series", "format_coefficients", ("self_s",), "ops_per_s on forms"),
    ("series", "coefficients_to_json", ("self_s",), "ops_per_s on forms"),
    ("verify", "run_checks", ("calls", "self_s"), "ops_per_s on crosscheck"),
)

# Derived per-layer metrics; both are ratios.
YIELD_RATIO = "paths.filter.yield_ratio"  # filter items / enumerate_deutsch items
OVERHEAD_RATIO = "trace.overhead_ratio"  # traced wall time / untraced wall time


def layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    units = {"calls": "count", "items": "count", "self_s": "s"}
    names = [
        (f"{module}.{function}.{metric}", units[metric])
        for module, function, metrics, _ in LAYERS
        for metric in metrics
    ]
    return names + [(YIELD_RATIO, "ratio"), (OVERHEAD_RATIO, "ratio")]


class _TracedIterator:
    __slots__ = ("_tracer", "_name", "_inner")

    def __init__(self, tracer: Tracer, name: int, inner: Iterator):
        self._tracer = tracer
        self._name = name
        self._inner = inner

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        span = tracer._open(self._name)
        try:
            item = next(self._inner)
        finally:
            tracer._close(span)
        tracer.items[self._name] += 1
        return item


class Tracer:
    """Records spans for the functions in ``LAYERS`` while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.items: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._open_spans = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: int) -> int:
        span = len(self.span_start)
        self.span_name.append(name)
        self.span_parent.append(self._open_spans[-1])
        self.span_end.append(0)
        self._open_spans.append(span)
        self.span_start.append(time.perf_counter_ns())
        return span

    def _close(self, span: int) -> None:
        self.span_end[span] = time.perf_counter_ns()
        self._open_spans.pop()

    def _wrap(self, qualname: str, function):
        name = len(self.names)
        self.names.append(qualname)
        self.calls.append(0)
        self.items.append(0)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            span = self._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self._close(span)
            if isinstance(result, Iterator):
                return _TracedIterator(self, name, result)
            self.items[name] += len(result) if isinstance(result, (tuple, list)) else 1
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "deutschpaths"]
        for module_name, function, _, _ in LAYERS:
            module = sys.modules[f"deutschpaths.{module_name}"]
            owner_name, _, attribute = function.rpartition(".")
            if owner_name:
                owners = [getattr(module, owner_name)]
                original = owners[0].__dict__[attribute]
            else:
                owners = modules
                original = getattr(module, attribute)
            wrapper = self._wrap(f"{module_name}.{function}", original)
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, key, wrapper)
                        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def self_seconds(self) -> list[float]:
        """Self time per traced function: span durations minus child spans."""
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        child = [0] * len(starts)
        for span, parent in enumerate(parents):
            if parent >= 0:
                child[parent] += ends[span] - starts[span]
        totals = [0] * len(self.names)
        for span, name in enumerate(self.span_name):
            totals[name] += ends[span] - starts[span] - child[span]
        return [t / 1e9 for t in totals]

    def layer_metrics(self) -> dict[str, float]:
        index = {name: i for i, name in enumerate(self.names)}
        self_s = self.self_seconds()
        values = {"calls": self.calls, "items": self.items, "self_s": self_s}
        out: dict[str, float] = {}
        for module, function, metrics, _ in LAYERS:
            i = index[f"{module}.{function}"]
            for metric in metrics:
                out[f"{module}.{function}.{metric}"] = values[metric][i]
        walked = self.items[index["paths.enumerate_deutsch"]]
        kept = self.items[index["paths.enumerate_nondecreasing_filter"]]
        out[YIELD_RATIO] = kept / walked if walked else 0.0
        return out

    def write(self, path: Path) -> None:
        """All spans as tab-separated rows; a span's id is its row number."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("# name\tparent\tstart_ns\tend_ns\n")
            for span, name in enumerate(self.span_name):
                out.write(
                    f"{self.names[name]}\t{self.span_parent[span]}\t"
                    f"{self.span_start[span]}\t{self.span_end[span]}\n"
                )
