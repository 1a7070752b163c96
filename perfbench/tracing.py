"""Spans around the public functions of each ``poishare`` module.

Inside ``with Tracer(...)``, each traced function is replaced by a wrapper
under every name the package binds it to (``mobile_solver`` holds its own
``coverage_upper_bound``, ``cli`` its own ``gus``), so a call is traced
whichever module makes it; leaving the block puts the originals back.

Each wrapped call is a span with a name, a start, an end and the span
that caused it.  A span's self time is its duration minus the time of the
spans it caused.  Methods called at high rates (``AGGREGATED``) keep a
count and a total instead of one record per call, but still charge their
time to the caller, so the caller's self time stays exact.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

#: (module, attribute, span name) of every traced function.
SPANS = (
    ("pipeline", "ingest_instance", "pipeline.ingest_instance"),
    ("pipeline", "cluster_locations", "pipeline.cluster_locations"),
    ("pipeline", "build_roads", "pipeline.build_roads"),
    ("pipeline", "synth_instance", "pipeline.synth_instance"),
    ("io", "load_instance", "io.load_instance"),
    ("model", "validate", "model.validate"),
    ("welfare", "broadcast_breakdown", "welfare.broadcast_breakdown"),
    ("welfare", "phi_selection_matrix", "welfare.phi_selection_matrix"),
    ("welfare", "phi_walks_matrix", "welfare.phi_walks_matrix"),
    ("static_solver", "exact_max_coverage", "static_solver.exact_max_coverage"),
    ("static_solver", "coverage_upper_bound", "static_solver.coverage_upper_bound"),
    ("static_solver", "greedy_max_coverage", "static_solver.greedy_max_coverage"),
    ("static_solver", "ub1", "static_solver.ub1"),
    ("static_solver", "gus", "static_solver.gus"),
    ("mobile_solver", "enumerate_walks", "mobile_solver.enumerate_walks"),
    ("mobile_solver", "gps", "mobile_solver.gps"),
    ("mobile_solver", "adjusted_gps", "mobile_solver.adjusted_gps"),
    ("mobile_solver", "ub2", "mobile_solver.ub2"),
    ("cli", "run_sweep", "cli.run_sweep"),
    ("cli", "_cmd_sweep", "cli.sweep"),
    ("cli", "_cmd_solve_static", "cli.solve_static"),
    ("cli", "_cmd_solve_mobile", "cli.solve_mobile"),
)

#: (module, class, method, span name) of traced methods.
METHODS = (
    ("welfare", "CoverageState", "__init__", "welfare.CoverageState"),
    ("welfare", "CoverageState", "gain_from_nodes", "welfare.gain_from_nodes"),
    ("welfare", "CoverageState", "add_nodes", "welfare.add_nodes"),
)

AGGREGATED = frozenset({"welfare.gain_from_nodes", "welfare.add_nodes"})

#: Spans whose result length is counted as items (walks built).
COUNT_ITEMS = frozenset({"mobile_solver.enumerate_walks"})


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    raised: int = 0
    items: int = 0

    def merge(self, other: "Stat") -> None:
        self.calls += other.calls
        self.total += other.total
        self.self_time += other.self_time
        self.raised += other.raised
        self.items += other.items


class Tracer:
    """In-memory spans and per-name totals for one traced stretch."""

    def __init__(self, counted_error: type[BaseException]):
        self.counted_error = counted_error
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent span
        # Open spans: [span index, start, time of the spans it caused].
        self._stack: list[list] = [[-1, 0.0, 0.0]]
        self._undo: list[tuple[object, str, object]] = []

    def _stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def _span(self, name: str, fn):
        stat = self._stat(name)
        stack, spans, counted = self._stack, self.spans, self.counted_error
        count_items = name in COUNT_ITEMS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append((name, 0.0, 0.0, stack[-1][0]))
            frame = [index, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except counted:
                stat.raised += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[1]
                stack[-1][2] += duration
                spans[index] = (name, frame[1], end, spans[index][3])
                stat.calls += 1
                stat.total += duration
                stat.self_time += duration - frame[2]
            if count_items:
                stat.items += len(result)
            return result

        return traced

    def _aggregate(self, name: str, fn):
        stat = self._stat(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack[-1][2] += duration
                stat.calls += 1
                stat.total += duration
                stat.self_time += duration

        return counted

    def _wrap(self, name: str, fn):
        return self._aggregate(name, fn) if name in AGGREGATED else self._span(name, fn)

    def __enter__(self) -> "Tracer":
        owners = {name: importlib.import_module(f"poishare.{name}")
                  for name in {spec[0] for spec in SPANS + METHODS}}
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "poishare" or key.startswith("poishare."))]
        for module_name, attr, name in SPANS:
            original = getattr(owners[module_name], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                if vars(module).get(attr) is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(owners[module_name], cls_name)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def table(self) -> dict[str, dict]:
        return {name: vars(stat).copy() for name, stat in self.stats.items()}
