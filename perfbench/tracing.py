"""Span tracing of bfpde's public functions, installed from outside the package.

:meth:`Tracer.install` replaces module attributes of ``bfpde.cli`` and
``bfpde.engine`` with timing wrappers; nothing under ``src/`` is edited.  The
package looks these names up as module globals at call time, so
``bfpde.cli.run`` reaches the wrapped ``verify`` and ``verify`` reaches the
wrapped checks.

A span records its name, start, end, parent span and operation id.  Spans are
kept in memory and written once, when the run ends.  ``evaluate`` and
``differentiate`` run tens of thousands of times per operation, so they are
recorded as counts plus time summed onto the enclosing span (``leaf_s``)
instead of one span per call; that keeps memory bounded and self time exact.

All times come from ``time.perf_counter``, which is CLOCK_MONOTONIC on Linux,
so a child process's spans line up with its parent's.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter as clock

import numpy as np

# (module, attribute, span name); envelope_curve is named by its role argument
SPANNED = (
    ("bfpde.cli", "load_problem", "io.load_problem"),
    ("bfpde.cli", "verify", "engine.verify"),
    ("bfpde.cli", "emit_report", "io.emit_report"),
    ("bfpde.cli", "compute_curves", "engine.compute_curves"),
    ("bfpde.cli", "emit_curves", "io.emit_curves"),
    ("bfpde.engine", "check_structure", "engine.check_structure"),
    ("bfpde.engine", "envelope_curve", "engine.envelope_"),
    ("bfpde.engine", "gamma_curves", "engine.gamma_curves"),
    ("bfpde.engine", "check_fuzzy_validity", "engine.check_fuzzy_validity"),
    ("bfpde.engine", "check_differentiability", "engine.check_differentiability"),
    ("bfpde.engine", "check_equality", "engine.check_equality"),
    ("bfpde.engine", "check_boundary", "engine.check_boundary"),
)
LEAVES = (
    ("bfpde.engine", "evaluate", "expr.evaluate"),
    ("bfpde.engine", "differentiate", "expr.differentiate"),
)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.leaf_s: dict[str, float] = defaultdict(float)
        self.op = None  # id stamped on every span opened from now on
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    # --- recording -----------------------------------------------------------

    def begin(self, name: str, start: float | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "start": clock() if start is None else start, "end": None,
                           "parent": parent, "op": self.op, "leaf_s": 0.0})
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int, end: float | None = None) -> None:
        self.spans[idx]["end"] = clock() if end is None else end
        self._stack.pop()

    def adopt(self, child: dict) -> None:
        """Attach a child process's dump below the currently open span."""
        offset = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        for span in child["spans"]:
            own = span["parent"]
            self.spans.append(dict(span, op=self.op, parent=parent if own is None else own + offset))
        for key, value in child["counts"].items():
            self.counts[key] += value
        for key, value in child["leaf_s"].items():
            self.leaf_s[key] += value

    def _observe_curve(self, curve, parent: int | None) -> None:
        # sample routes are read from curves that verify computed; compute_curves repeats them
        if parent is None or self.spans[parent]["name"] != "engine.verify":
            return
        feasible = curve.feasible[:, :, None] & np.ones(curve.shape, dtype=bool)
        self.counts[f"feasible.{curve.role}"] += int(feasible.sum())
        self.counts[f"approximate.{curve.role}"] += int((curve.approximate & feasible).sum())

    def _span_wrapper(self, original, name):
        def traced(*args, **kwargs):
            span_name = name
            if name == "engine.envelope_":
                span_name += kwargs["role"] if "role" in kwargs else args[4]
            idx = self.begin(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(idx)
            if name in ("engine.envelope_", "engine.gamma_curves"):
                self._observe_curve(result, self.spans[idx]["parent"])
            return result
        return traced

    def _leaf_wrapper(self, original, name):
        # hot path: tens of thousands of calls per operation, so bind everything locally
        counts, leaf_s, spans, stack = self.counts, self.leaf_s, self.spans, self._stack
        calls_key = f"{name}_calls"
        count_elems = name == "expr.evaluate"

        def traced(*args, **kwargs):
            counts[calls_key] += 1
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                dt = clock() - t0
                leaf_s[name] += dt
                if stack:
                    spans[stack[-1]]["leaf_s"] += dt
            if count_elems:
                counts["expr.evaluate_elems"] += getattr(result, "size", 1)  # a float result is one element
            return result
        return traced

    def install(self) -> None:
        for table, make in ((SPANNED, self._span_wrapper), (LEAVES, self._leaf_wrapper)):
            for module_name, attr, name in table:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._installed.append((module, attr, original))
                setattr(module, attr, make(original, name))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def dump(self, path, **extra) -> None:
        payload = {"spans": self.spans, "counts": self.counts, "leaf_s": self.leaf_s, **extra}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)

    # --- analysis ------------------------------------------------------------

    def totals(self, ops: set) -> tuple[dict, dict]:
        """Summed duration and self time per span name, over the given operations.

        Self time is a span's duration minus its child spans and the
        ``evaluate``/``differentiate`` time spent directly under it.
        """
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        children: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["op"] in ops and span["parent"] is not None:
                children[span["parent"]] += span["end"] - span["start"]
        for i, span in enumerate(self.spans):
            if span["op"] not in ops:
                continue
            duration = span["end"] - span["start"]
            total[span["name"]] += duration
            self_time[span["name"]] += duration - children[i] - span["leaf_s"]
        return total, self_time


def child_main(spans_path: str) -> None:
    """Entry point of a traced ``bfpde check`` subprocess: import, trace, run, dump."""
    import bfpde.cli

    imported = clock()
    tracer = Tracer()
    tracer.install()
    try:
        bfpde.cli.main()
    finally:
        tracer.dump(spans_path, imported=imported)
