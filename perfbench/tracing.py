"""Spans around starvlc's layer boundaries, recorded from outside the package.

Nothing under `src/` knows about this module. `install` replaces, for the
duration of a `with` block, the names each starvlc module imports from
another (`spca.sum_rate`, `cli.channel_set`, ...) with wrappers that time
the call. The benchmark wraps its own public calls with `Tracer.wrap` too.

A span's layer is the part of its name before the first dot. Self time is a
span's duration minus the time its child spans cover. Spans are aggregated
in memory as they close (calls, total and self time, per-call durations for
the names in `KEEP_DURATIONS`) and reported when the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter, defaultdict

# (module, attribute, span name): each is a name one starvlc module imports
# from another, so patching the importing module's attribute intercepts
# exactly the cross-layer calls.
CROSS_LAYER = [
    ("channel", "build_ris_grid", "geometry.build_ris_grid"),
    ("spca", "sum_rate", "link.sum_rate"),
    ("spca", "rate_pair", "link.rate_pair"),
    ("oracle", "rate_pair", "link.rate_pair"),
    ("oracle", "enumerate_vertices", "kernels.enumerate_vertices"),
    ("cli", "channel_set", "channel.channel_set"),
    ("cli", "vertex_enumerate", "oracle.vertex_enumerate"),
    ("cli", "spca_optimize", "spca.es"),
    ("cli", "mode_switching_optimize", "spca.ms"),
    ("cli", "time_sharing_optimize", "spca.ts"),
    ("cli", "max_min_optimize", "spca.maxmin"),
]

# Spans whose per-call durations feed percentile metrics. The link spans are
# left out: panels-binary makes hundreds of thousands of them per batch.
KEEP_DURATIONS = {"channel.channel_set", "spca.es", "spca.ms", "spca.ts", "spca.maxmin"}


def observe_solver(result) -> dict:
    return {"spca.outer_iterations": result.iterations,
            "spca.unconverged": int(not result.converged)}


def observe_oracle(report) -> dict:
    return {"oracle.vertices": report.evaluations}


OBSERVERS = {
    "spca.es": observe_solver,
    "spca.ms": observe_solver,
    "spca.ts": observe_solver,
    "spca.maxmin": observe_solver,
    "oracle.vertex_enumerate": observe_oracle,
}


class Tracer:
    """Aggregates nested spans: calls, total and self seconds per name."""

    def __init__(self):
        self.calls = Counter()
        self.total_s = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self.durations = defaultdict(list)
        self._open = []  # child seconds accumulated by each open span

    def wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        keep = name in KEEP_DURATIONS

        def traced(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._open.pop()
                if self._open:
                    self._open[-1] += elapsed
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - children
                if keep:
                    self.durations[name].append(elapsed)
            if observe is not None:
                self.counts.update(observe(result))
            return result

        traced.__wrapped__ = fn
        return traced

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer)

    def layer_calls(self, layer: str) -> int:
        return sum(v for k, v in self.calls.items() if k.split(".", 1)[0] == layer)

    def to_json(self) -> dict:
        return {"calls": dict(self.calls), "total_s": dict(self.total_s),
                "self_s": dict(self.self_s), "counts": dict(self.counts),
                "durations": {k: list(v) for k, v in self.durations.items()}}

    def merge(self, data: dict) -> None:
        """Add spans recorded by another process (see `to_json`)."""
        self.calls.update(data["calls"])
        self.total_s.update(data["total_s"])
        self.self_s.update(data["self_s"])
        self.counts.update(data["counts"])
        for name, values in data["durations"].items():
            self.durations[name].extend(values)


@contextlib.contextmanager
def install(tracer: Tracer):
    """Wrap every `CROSS_LAYER` name for the duration of the block."""
    saved = []
    try:
        for module_name, attr, span in CROSS_LAYER:
            module = importlib.import_module(f"starvlc.{module_name}")
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
