"""Per-layer spans recorded around the package's public functions.

Tracing wraps each function named in ``SPANS`` in every ``optiplanar.*``
namespace that binds it, so calls between modules are seen too (for
instance ``homotopic_duplicates`` reaches ``curve_is_contractible``
through ``optiplanar.drawing``'s own binding).  Classes are traced
through their ``__init__``, which covers every way of constructing them.

A span is (name, start, end, parent span, operation id).  Spans are kept
in memory and summarised when the run ends; nothing is recorded while no
operation is current, so the benchmark's own output checks stay out of
the trace.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

from corpus import homotopy_pairs

# The layer boundaries, as "<module>.<public name>".  Every per-layer
# metric name starts with one of these.
SPANS = (
    "cli.main",
    "docio.loads_drawing",
    "docio.dumps_drawing",
    "docio.export_svg",
    "docio.export_dot",
    "plane.PlaneMultigraph",
    "plane.curve_is_contractible",
    "drawing.Drawing",
    "drawing.validate",
    "drawing.true_planar_skeleton",
    "drawing.homotopic_duplicates",
    "drawing.remove_base_edge",
    "characterize.check_optimal_2planar",
    "characterize.check_optimal_3planar",
    "characterize.density_audit",
    "characterize.assign_crossed_edges_to_faces",
    "characterize.chord_positions",
    "generate.generate_optimal",
    "generate.insert_pentagram",
    "generate.insert_hexagon_pattern",
    "visibility.extend_to_bar1",
    "visibility.st_number",
    "visibility.verify_bar1",
)


def _loads_bytes(args, kwargs) -> int:
    text = args[0] if args else kwargs["text"]
    return len(text.encode("utf-8"))


def _plane_darts(args, kwargs) -> int:
    rotations = args[1] if len(args) > 1 else kwargs["rotations"]
    return sum(len(ds) for ds in rotations.values())


def _duplicate_pairs(args, kwargs) -> int:
    return homotopy_pairs(args[0] if args else kwargs["d"])


# Work counted at a span, named "<span>.<unit>".  Each count is taken
# after its span closes, so its cost lands in the parent's self time.
WORK = {
    "docio.loads_drawing": ("bytes", _loads_bytes),
    "plane.PlaneMultigraph": ("darts", _plane_darts),
    "drawing.homotopic_duplicates": ("pairs", _duplicate_pairs),
}

# Layers whose per-document busy time is fitted against m.
FITS = (
    "drawing.homotopic_duplicates",
    "characterize.chord_positions",
    "plane.PlaneMultigraph",
    "docio.export_svg",
)


class Tracer:
    """Installs the span wrappers and collects spans and work counts."""

    def __init__(self):
        self.spans: list = []
        self.work: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        count = WORK.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, op)
                if count is not None:
                    self.work[f"{name}.{count[0]}"] += count[1](args, kwargs)

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "optiplanar" or key.startswith("optiplanar.")]
        for name in SPANS:
            mod, attr = name.split(".")
            orig = getattr(importlib.import_module(f"optiplanar.{mod}"), attr)
            if isinstance(orig, type):
                self._undo.append((orig, "__init__", orig.__init__))
                orig.__init__ = self._wrap(name, orig.__init__)
                continue
            wrapper = self._wrap(name, orig)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._undo.append((module, key, orig))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    def layer_metrics(self, scales: list[float]
                      ) -> dict[str, tuple[float, str]]:
        """Calls, busy and self seconds per operation for every span name,
        plus the work counts per operation, as (value, unit).  Seconds
        are scaled by the factor of the operation they belong to, one per
        operation in ``scales``."""
        n_ops = len(scales)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        busy: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _parent, op) in enumerate(self.spans):
            calls[name] += 1
            busy[name] += (end - start) * scales[op]
            own[name] += (end - start - child[idx]) * scales[op]
        out: dict[str, tuple[float, str]] = {}
        for name in SPANS:
            out[f"{name}.calls"] = (calls[name] / n_ops, "count/op")
            out[f"{name}.s"] = (busy[name] / n_ops, "s/op")
            out[f"{name}.self_s"] = (own[name] / n_ops, "s/op")
        for name, (unit, _fn) in WORK.items():
            key = f"{name}.{unit}"
            out[key] = (self.work[key] / n_ops, f"{unit}/op")
        return out

    def busy_by_op(self, name: str,
                   scales: list[float]) -> dict[int, float]:
        """Scaled busy seconds of one span name within each operation."""
        out: dict[int, float] = defaultdict(float)
        for span_name, start, end, _parent, op in self.spans:
            if span_name == name:
                out[op] += (end - start) * scales[op]
        return out


def loglog_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x); 0 with fewer than two
    distinct x values."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx
