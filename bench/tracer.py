"""Span tracer for the per-layer metrics.

Wraps the package's public functions by rebinding them in every
``cliquebounds.*`` namespace that holds them, for the duration of one traced
phase only. Each call is a span (name, start, end, parent); a function that
returns an iterator gets one extra span per ``next()`` call, so a generator's
work is charged to it and not to whoever consumes it. Self time is a span's
duration minus the part covered by its child spans.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

# The layers named by the benchmark, in the package's module names.
LAYERS = {
    "graphs": ("enumerate_graphs", "parse_graph6", "write_graph6"),
    "weights": ("compute_weights", "longest_path_from", "compute_weights_block_graph"),
    "cliques": ("count_cliques", "count_cliques_touching"),
    "bounds": ("check_theorem", "thm1_rhs", "thm2_rhs"),
    "extremal": ("extremal_predicate", "is_parent_dominated", "components_are_cliques", "block_decomposition"),
    "transforms": ("peel", "transform_closure", "simple_transforms", "verify_peel_decomposition"),
    "oracle": ("exhaustive_verify",),
}
ROOT = "cli.main"


def _graph_key(args, kwargs):
    g = args[0] if args else kwargs.get("g")
    return (getattr(g, "n", None), getattr(g, "adj", None))


class _Observer:
    """Ratios read from arguments and return values of traced calls."""

    def __init__(self):
        self.weights_keys: set = set()
        self.clique_keys: set = set()
        self.closure_paths = 0
        self.peel_stages = 0
        self.classes: list[tuple] = []

    def call(self, name, args, kwargs, result):
        if name == "weights.compute_weights":
            self.weights_keys.add(_graph_key(args, kwargs))
        elif name == "cliques.count_cliques":
            s = args[1] if len(args) > 1 else kwargs.get("s")
            self.clique_keys.add(_graph_key(args, kwargs) + (s,))
        elif name == "transforms.transform_closure":
            self.closure_paths += len(getattr(result, "paths", ()))
        elif name == "transforms.peel":
            self.peel_stages += len(getattr(result, "stages", ()))

    def item(self, name, item):
        if name == "graphs.enumerate_graphs":
            self.classes.append((getattr(item, "n", 0), tuple(getattr(item, "adj", ()))))


class Tracer:
    def __init__(self):
        self.names: list[str] = [ROOT]
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: dict[str, int] = {}
        self.absent: list[str] = []
        self.observed = _Observer()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def root(self, fn, *args):
        """Run ``fn(*args)`` as one root span (a CLI invocation)."""
        idx = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    # -- installation -------------------------------------------------------

    def _wrap(self, name: str, name_id: int, fn):
        tracer = self
        observed = self.observed

        class TimedIterator:
            def __init__(self, it):
                self._it = it

            def __iter__(self):
                return self

            def __next__(self):
                idx = tracer._open(name_id)
                try:
                    item = next(self._it)
                finally:
                    tracer._close(idx)
                observed.item(name, item)
                return item

        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            observed.call(name, args, kwargs, result)
            if hasattr(result, "__next__"):
                return TimedIterator(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        """Rebind every listed public function; a name the package no longer
        defines is recorded as absent instead of failing the run."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "cliquebounds" or key.startswith("cliquebounds."))]
        for module, funcs in LAYERS.items():
            try:
                home = importlib.import_module(f"cliquebounds.{module}")
            except ImportError:
                home = None
            for func in funcs:
                name = f"{module}.{func}"
                self.calls[name] = 0
                orig = getattr(home, func, None)
                if not callable(orig):
                    self.absent.append(name)
                    continue
                self.names.append(name)
                wrapper = self._wrap(name, len(self.names) - 1, orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
                            self._restore.append((m, attr, orig))

    def uninstall(self):
        for m, attr, orig in reversed(self._restore):
            setattr(m, attr, orig)
        self._restore.clear()

    # -- aggregation --------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], float]:
        """Self seconds per span name, and the wall time of the root spans."""
        count = len(self.span_start)
        child = [0.0] * count
        dur = [self.span_end[i] - self.span_start[i] for i in range(count)]
        for i in range(count):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += dur[i]
        out = {name: 0.0 for name in self.names}
        wall = 0.0
        for i in range(count):
            name = self.names[self.span_name[i]]
            out[name] += dur[i] - child[i]
            if self.span_parent[i] < 0:
                wall += dur[i]
        return out, wall
