"""Span recorder that wraps vslcontrol's layer entry points from outside.

While installed, each target below is replaced on its module by a wrapper
that records a span (name, start, end, parent span, case id) and, for some
targets, counts read from the arguments or the return value.  The wrapper
is found at the call site because the package calls these functions through
module attributes (`free_inlet.simulate`, `runner._write_long`, ...), so
nothing in `src/` changes.  Spans stay in memory until `dump`.

A span's self time is its duration minus the durations of its direct
children; the case span's self time is the part of a case no layer claims.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from vslcontrol import cli, fixed_inlet, free_inlet, pde_oracle, runner

CASE = "case"

# (module, attribute, per-layer metric that takes the span's self time)
TARGETS = (
    (cli, "main", "cli.self_s"),
    (free_inlet, "simulate", "free_inlet.simulate_s"),
    (fixed_inlet, "calibrate", "fixed_inlet.calibrate_s"),
    (fixed_inlet, "simulate", "fixed_inlet.simulate_s"),
    (fixed_inlet, "admissible", "fixed_inlet.admissible_s"),
    (pde_oracle, "integrate", "pde_oracle.integrate_s"),
    (pde_oracle, "compare", "pde_oracle.compare_s"),
    (runner, "speed_limits", "fundamental_diagram.speed_limits_s"),
    (runner, "_write_trace", "runner.write_s"),
    (runner, "_write_long", "runner.write_s"),
    (runner, "_write_metadata", "runner.write_s"),
    (runner, "_write_report", "runner.write_s"),
    (runner, "_free_checks", "runner.checks_s"),
    (runner, "_fixed_checks", "runner.checks_s"),
    (runner, "load_trace", "runner.load_trace_s"),
)

# counts whose per-case value is a maximum rather than a sum
MAX_COUNTS = frozenset({"free_inlet.picard_iters_max", "pde_oracle.gap_max"})


def _span_name(module, attr: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"


def _counts(name: str, args: tuple, out) -> dict[str, float]:
    if name == "free_inlet.simulate":
        picard = out.metadata["picard"]
        return {"free_inlet.picard_windows": picard["windows"],
                "free_inlet.picard_iters_max": picard["max_iterations"]}
    if name == "fixed_inlet.simulate":
        return {"fixed_inlet.picard_iters": out.metadata["picard"]["max_iterations"]}
    if name == "fixed_inlet.admissible":
        return {"fixed_inlet.admissible_calls": 1}
    if name == "pde_oracle.integrate":
        return {"pde_oracle.calls": 1, "pde_oracle.steps": out.metadata["steps"]}
    if name == "pde_oracle.compare":
        return {"pde_oracle.gap_max": out.max_density_gap}
    if name == "runner.speed_limits":
        return {"fundamental_diagram.speed_limits_cells": int(np.size(args[1]))}
    return {}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    case: int | None
    counts: dict[str, float] = field(default_factory=dict)


class Recorder:
    """Collects spans while installed; `install`/`uninstall` swap the wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._case: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module, attr, _ in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(_span_name(module, attr), original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _open(self, name: str) -> tuple[int, int | None]:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        return sid, parent

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            sid, parent = self._open(name)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = Span(name, start, end, parent, self._case)
            self.spans[sid].counts = _counts(name, args, out)
            return out
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def case(self, case_id: int):
        """Root span of one case; yields the span once it has closed."""
        self._case = case_id
        sid, parent = self._open(CASE)
        span = Span(CASE, time.perf_counter(), 0.0, parent, case_id)
        self.spans[sid] = span
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self._case = None

    def per_case(self) -> dict[int, dict[str, float]]:
        """Self time per layer metric and counts, keyed by case id.

        The self times of one case, with `unattributed_s` for the case
        span's own share, add up to that case's duration.
        """
        metric = {_span_name(m, a): k for m, a, k in TARGETS}
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: dict[int, dict[str, float]] = {}
        for sid, span in enumerate(self.spans):
            row = out.setdefault(span.case, {})
            key = "unattributed_s" if span.name == CASE else metric[span.name]
            row[key] = row.get(key, 0.0) + (span.end - span.start - child_time[sid])
            for name, value in span.counts.items():
                row[name] = max(row.get(name, value), value) if name in MAX_COUNTS \
                    else row.get(name, 0) + value
        return out

    def summary(self, case_ids: list[int]) -> dict[str, float]:
        """Mean over the given cases of each self time and count (max for MAX_COUNTS)."""
        rows = self.per_case()
        cases = [rows.get(i, {}) for i in case_ids]
        names = {name for row in cases for name in row}
        return {name: max(row.get(name, 0) for row in cases) if name in MAX_COUNTS
                else sum(row.get(name, 0) for row in cases) / len(cases)
                for name in names}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({"name": span.name, "start": span.start,
                                     "end": span.end, "parent": span.parent,
                                     "case": span.case, **span.counts}) + "\n")
