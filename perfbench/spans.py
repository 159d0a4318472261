"""Span tracer that times the library's layers from outside the library.

``install`` replaces the public functions of the ``magnonblockade`` modules
(and ``DensityMatrix.validate``) with timing wrappers. The modules import
their callees with ``from ... import ...``, so a wrapper is bound in every
module namespace that holds the original function, not only in the module
that defines it. Each call records one span: its name, start, end and the
span that was open when it started. Spans stay in memory until the caller
exports them; ``aggregate`` turns them into per-layer self time, call counts
and the counts a wrapper attaches (RK4 steps of ``evolve``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import time
from collections import defaultdict
from typing import NamedTuple

PACKAGE = "magnonblockade"
LAYER_MODULES = ("hilbert", "model", "dynamics", "observables", "analytic",
                 "scenarios", "cli")

# Spans that orchestrate the sweep rather than doing a layer's work; their
# self time is excluded from the traced sweep's coverage.
ORCHESTRATION = ("cli.main", "scenarios.run_scenario")


class Span(NamedTuple):
    span_id: int
    parent_id: int          # 0 for a root span
    name: str
    start_ns: int
    end_ns: int
    counts: dict | None     # exact counts attached by the wrapper, if any


def rk4_steps(traj) -> dict:
    """RK4 steps ``evolve`` took, recomputed from the returned Trajectory:
    each grid interval is split into ceil(dt / step) equal steps (at least 1)."""
    steps = 0
    for t0, t1 in zip(traj.times[:-1], traj.times[1:]):
        dt = float(t1 - t0)
        steps += max(1, math.ceil(dt / traj.step)) if math.isfinite(traj.step) else 1
    return {"rk4_steps": steps}


# counts derived from a layer's return value, keyed by span name
COUNTERS = {"dynamics.evolve": rk4_steps}


class Tracer:
    """Collects the spans of one traced sweep; all share ``trace_id``.

    The open spans form one stack, which holds for a sweep run with the
    default ``--threads 1``."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counter=None):
        """Return ``fn`` wrapped so that each call records a span ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            span_id = next(self._ids)
            parent_id = stack[-1] if stack else 0
            stack.append(span_id)
            result = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                counts = counter(result) if counter is not None and result is not None else None
                self.spans.append(Span(span_id, parent_id, name, start, end, counts))

        return traced

    def export(self) -> dict:
        return {"trace_id": self.trace_id, "spans": [list(s) for s in self.spans]}


def spans_from_export(data: dict) -> list[Span]:
    return [Span(*s) for s in data["spans"]]


def _layer_functions(modules: dict) -> dict:
    """{original function: span name} for the public functions of each module."""
    found = {}
    for short, mod in modules.items():
        names = list(getattr(mod, "__all__", ()))
        if short == "cli":
            names.append("main")
        for attr in names:
            obj = getattr(mod, attr)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                found[obj] = f"{short}.{attr}"
    return found


def install(tracer: Tracer):
    """Wrap every public layer function of the package in every namespace that
    holds it, plus ``hilbert.DensityMatrix.validate``. Returns a function that
    restores the originals."""
    modules = {short: importlib.import_module(f"{PACKAGE}.{short}") for short in LAYER_MODULES}
    wrappers = {fn: tracer.wrap(name, fn, COUNTERS.get(name))
                for fn, name in _layer_functions(modules).items()}
    undo = []
    for ns in [importlib.import_module(PACKAGE), *modules.values()]:
        for key, value in list(vars(ns).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(ns, key, wrappers[value])
                undo.append((ns, key, value))
    dm = modules["hilbert"].DensityMatrix
    original_validate = dm.validate
    dm.validate = tracer.wrap("hilbert.DensityMatrix.validate", original_validate)
    undo.append((dm, "validate", original_validate))

    def restore():
        for ns, key, value in reversed(undo):
            setattr(ns, key, value)

    return restore


def _covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    covered, reach = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            covered += b - a
            reach = b
    return covered


def self_times_ns(spans) -> dict:
    """{span_id: duration minus the part of it that its child spans cover}."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent_id].append((s.start_ns, s.end_ns))
    return {s.span_id: (s.end_ns - s.start_ns)
            - _covered_ns(children[s.span_id], s.start_ns, s.end_ns)
            for s in spans}


def aggregate(spans) -> dict:
    """Per span name: {"self_ms", "calls", **summed counts}."""
    selfs = self_times_ns(spans)
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s.name, {"self_ms": 0.0, "calls": 0})
        row["self_ms"] += selfs[s.span_id] / 1e6
        row["calls"] += 1
        for key, value in (s.counts or {}).items():
            row[key] = row.get(key, 0) + value
    return out


def coverage(spans, sweep_s: float) -> float:
    """Share of the sweep's wall time spent in the self time of the wrapped
    layers, not counting the orchestration spans."""
    layers_ms = sum(row["self_ms"] for name, row in aggregate(spans).items()
                    if name not in ORCHESTRATION)
    return layers_ms / (sweep_s * 1e3)
