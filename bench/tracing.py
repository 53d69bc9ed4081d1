"""Span tracer that wraps the library's cross-module seams from outside.

Every call from one wittenzeta module into another is a module-attribute
lookup (``dims.dim_class_one_float``, ``weights._graded_box``, ...), so
replacing that attribute with a timing wrapper records the call without
touching the library.  Each span keeps its name, start, end and parent;
self time is the span's duration minus the time its child spans cover,
accumulated as the spans close.

A call into a layer that is already the innermost open layer (recursion in
``weights._compositions_within``, or ``_graded_box`` calling it) is passed
straight through, so work is counted once, at the outermost seam.
"""
from __future__ import annotations

import json
import math
import time
from collections import defaultdict

# (module, attribute, layer).  A seam missing from the library is skipped,
# and its layer then reports zero work.
SEAMS = (
    ("rootdata", "_build_space", "rootdata"),
    ("rootdata", "build_root_system", "rootdata"),
    ("dims", "dim_class_one", "dims.class_one_exact"),
    ("dims", "dim_class_one_float", "dims.class_one_float"),
    ("dims", "dim_class_one_log", "dims.class_one_log"),
    ("dims", "dim_type_II", "dims.type_II_exact"),
    ("dims", "dim_type_II_float", "dims.type_II_float"),
    ("weights", "_graded_box", "weights"),
    ("weights", "_compositions_within", "weights"),
    ("zeta", "_growing_box", "zeta"),
    ("genseries", "_sum_with_tail", "genseries"),
    ("genseries", "shifted_product_tail", "genseries.tail_cert"),
    ("genseries", "hurwitz_zeta_certified", "specfun.hurwitz"),
    ("partition", "_shell_heat_sum", "partition"),
    ("partition", "_rank_one_heat_sum", "partition"),
    ("partition", "_casimir_float", "partition.casimir"),
)

DIM_PATHS = ("class_one_exact", "class_one_float", "class_one_log",
             "type_II_exact", "type_II_float")


class Tracer:
    """Wraps seams while installed; keeps up to ``cap`` spans in memory.

    Beyond the cap spans are still timed and counted, only not stored;
    ``dropped`` says how many.
    """

    def __init__(self, cap: int = 50_000):
        self.cap = cap
        self.spans: list[tuple[int, str, int, int, int]] = []
        self.dropped = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []   # [span id, layer, name, start, child ns]
        self._next_id = 1
        self._installed: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self, modules: dict[str, object]) -> "Tracer":
        for mod_name, attr, layer in SEAMS:
            module = modules.get(mod_name)
            if module is None or not hasattr(module, attr):
                continue
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, layer,
                                             f"{mod_name}.{attr}"))
            self._installed.append((module, attr, original))
        return self

    def install_record(self, descriptor_cls) -> None:
        """Time ``record()`` on catalog descriptors (the ``spaces`` command)."""
        original = descriptor_cls.record
        tracer = self

        def record(desc):
            t0 = time.perf_counter_ns()
            try:
                return original(desc)
            finally:
                tracer.counts["rootdata.records"] += 1
                tracer.counts["rootdata.record_ns"] += time.perf_counter_ns() - t0

        descriptor_cls.record = record
        self._installed.append((descriptor_cls, "record", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- recording --------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str):
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, layer, name, clock(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._close(frame, end)
            self._count(layer, name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, frame, end: int) -> None:
        span_id, layer, name, start, child_ns = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[4] += duration
        self.calls[layer] += 1
        self.total_ns[layer] += duration
        self.self_ns[layer] += duration - child_ns
        if len(self.spans) < self.cap:
            self.spans.append((span_id, name, start, end,
                               parent[0] if parent is not None else 0))
        else:
            self.dropped += 1

    def _count(self, layer: str, name: str, result) -> None:
        parent = self._stack[-1][1] if self._stack else None
        counts = self.counts
        if layer == "weights":
            counts["weights.coords"] += len(result)
            if parent == "zeta":
                counts["zeta.box_passes"] += 1
                counts["zeta.terms_evaluated"] += len(result)
            elif parent == "partition":
                counts["partition.shells"] += 1
        elif layer == "zeta":
            counts["zeta.terms_used"] += result.terms_used
        elif layer == "genseries":
            counts["genseries.terms"] += result.terms_used
            if math.isfinite(result.tail_bound):
                counts["genseries.tail_cert.accepted"] += 1
        elif layer == "partition":
            counts["partition.terms"] += result.terms_used
            if name == "partition._rank_one_heat_sum":
                # every n of a rank-one heat sum is a shell of its own
                counts["partition.shells"] += result.terms_used

    # -- output -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data totals, summable across processes and passes."""
        return {"calls": dict(self.calls), "total_ns": dict(self.total_ns),
                "self_ns": dict(self.self_ns), "counts": dict(self.counts),
                "spans": len(self.spans), "dropped": self.dropped}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")


def merge(snapshots: list[dict]) -> dict:
    out = {"calls": defaultdict(int), "total_ns": defaultdict(int),
           "self_ns": defaultdict(int), "counts": defaultdict(int),
           "spans": 0, "dropped": 0}
    for snap in snapshots:
        for key in ("calls", "total_ns", "self_ns", "counts"):
            for name, value in snap[key].items():
                out[key][name] += value
        out["spans"] += snap["spans"]
        out["dropped"] += snap["dropped"]
    return out
