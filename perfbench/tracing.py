"""Spans around the package's layers, recorded from outside the package.

A traced operation swaps selected module-level names of shrinkseg for
wrappers, runs, and puts every original back. Each wrapper records one
span per call: name, start, end, and the span that was open when it was
called (its parent). Spans stay in memory and are written out once, at
the end of the run. A name is traced only where a caller looks it up at
call time (a module global or a module attribute); every hot call in
the package is made that way, so nothing under src/ has to change.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import time
from collections import Counter, defaultdict

import numpy as np

# (module, attribute, span name). A span named "a.b" belongs to layer "a".
PATCHES = (
    ("shrinkseg.cli", "main", "cli"),
    ("shrinkseg.cli", "segment", "threshold"),
    ("shrinkseg.threshold", "segment", "threshold"),
    ("shrinkseg.threshold", "kmeans_1d", "threshold.kmeans"),
    ("shrinkseg.decompose", "decompose", "decompose"),
    ("shrinkseg.decompose", "admm_solve", "admm"),
    ("shrinkseg.decompose", "initial_support", "support.detect"),
    ("shrinkseg.decompose", "detect_support", "support.detect"),
    ("shrinkseg.decompose", "project_to_support", "support.project"),
    ("shrinkseg.decompose", "decomposition_energy", "energy"),
    ("shrinkseg.decompose", "grad", "grid.grad"),
    ("shrinkseg.admm", "solve_uv", "admm.solve_uv"),
    ("shrinkseg.admm", "grad", "grid.grad"),
    ("shrinkseg.admm", "grad_adjoint", "grid.grad"),
    ("shrinkseg.support", "grad", "grid.grad"),
    ("shrinkseg.energy", "grad", "grid.grad"),
    ("shrinkseg.imgio", "read_float_grid", "imgio.read"),
    ("shrinkseg.imgio", "read_labels", "imgio.read"),
    ("shrinkseg.imgio", "read_image", "imgio.read"),
    ("shrinkseg.imgio", "write_float_grid", "imgio.write"),
    ("shrinkseg.imgio", "write_labels", "imgio.write"),
    ("shrinkseg.imgio", "write_image", "imgio.write"),
    ("shrinkseg.imgio", "write_report", "imgio.write"),
    ("shrinkseg.imgio", "write_trace", "imgio.write"),
)

# Layer spans that should hold nearly all operation time on suite64
# (trace.covered_frac); none nests in another.
COVERING = ("admm", "support.detect", "support.project", "energy", "threshold")


# The package passes these arguments positionally.
def _count_outer(counts, args, result):
    counts["decompose.outer_iters"] += result.outer_iters
    counts["support.final_active"] += result.trace[-1].support_size


def _count_inner(counts, args, result):
    counts["admm.solves"] += 1
    counts["admm.inner_iters"] += result.iters
    counts["admm.capped_solves"] += int(result.iters >= args[7].maxit_in)


def _check_nested(counts, args, result):
    counts["support.nest_violations"] += int(np.any(result.active & ~args[1].active))


def _count_distinct(counts, args, result):
    counts["threshold.distinct_values"] += int(np.unique(args[0]).size)


def _count_read(counts, args, result):
    counts["imgio.bytes_read"] += os.path.getsize(args[0])


def _count_written(counts, args, result):
    counts["imgio.bytes_written"] += os.path.getsize(args[1])


# Counts taken at the boundary after the call returns, outside its span.
HOOKS = {
    ("shrinkseg.decompose", "decompose"): _count_outer,
    ("shrinkseg.decompose", "admm_solve"): _count_inner,
    ("shrinkseg.decompose", "detect_support"): _check_nested,
    ("shrinkseg.threshold", "kmeans_1d"): _count_distinct,
    ("shrinkseg.imgio", "read_float_grid"): _count_read,
    ("shrinkseg.imgio", "read_labels"): _count_read,
    ("shrinkseg.imgio", "read_image"): _count_read,
    ("shrinkseg.imgio", "write_float_grid"): _count_written,
    ("shrinkseg.imgio", "write_labels"): _count_written,
    ("shrinkseg.imgio", "write_image"): _count_written,
    ("shrinkseg.imgio", "write_report"): _count_written,
    ("shrinkseg.imgio", "write_trace"): _count_written,
}


class Tracer:
    """In-memory span log plus the counts taken at the same boundaries.

    A span is [name, start, end, parent index (-1 at the root), op id].
    Use install()/restore() around each traced operation; restore()
    raises if any name is not back to its original object.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, op: int) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        self.op = op
        for module_name, attr, name in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            hook = HOOKS.get((module_name, attr))
            setattr(module, attr, self._wrap(original, name, hook))

    def restore(self) -> None:
        originals, self._originals = self._originals, []
        for module, attr, original in originals:
            setattr(module, attr, original)
        stale = [
            f"{module.__name__}.{attr}"
            for module, attr, original in originals
            if getattr(module, attr) is not original
        ]
        if stale or self._stack:
            raise RuntimeError(f"traced names not restored: {stale}")

    @contextlib.contextmanager
    def span(self, name: str):
        """One span opened by the benchmark itself, around a whole operation."""
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def dump(self, path) -> None:
        with open(path, "w", encoding="ascii") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                handle,
            )


def span_times(spans) -> tuple[dict, dict]:
    """Total busy time and total self time per span name.

    Self time is a span's duration minus the durations of its direct
    children, which nest inside it on this single thread.
    """
    busy: dict = defaultdict(float)
    child: list[float] = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        busy[name] += end - start
        if parent >= 0:
            child[parent] += end - start
    own: dict = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        own[name] += end - start - child[i]
    return busy, own
