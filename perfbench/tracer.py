"""Spans and counters at ``layermig``'s layer boundaries, recorded from
outside the package.

:func:`installed` wraps the public functions listed in ``BOUNDARIES``
wherever a ``layermig`` module holds a reference to them (so calls
through ``from .delta_sync import sync_tree`` are seen too) and puts
every original back when it exits.  Each call records one span (name,
start, end, parent span, op id) and adds to that boundary's counters.
Spans stay in memory until the run ends; :func:`self_times` and
:func:`layer_metrics` turn them into per-layer numbers.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
import tracemalloc
from collections import defaultdict
from typing import NamedTuple

MB = 1_000_000


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    op: int | None


def _literal_bytes(delta) -> int:
    return sum(len(op.data) for op in delta.ops if hasattr(op, "data"))


def _count_entries(c, args, kwargs, result):
    c["entries"] += len(args[0])


def _count_result_bytes(c, args, kwargs, result):
    c["bytes"] += len(result)


def _count_signature(c, args, kwargs, result):
    c["bytes"] += result.total_length


def _count_sync_tree(c, args, kwargs, result):
    stats = result[1]
    for field in SYNC_FIELDS:
        c[field] += getattr(stats, field)


def _count_compute_delta(c, args, kwargs, result):
    delta = result[0]
    c["bytes"] += delta.target_length
    c["copy_bytes"] += delta.target_length - _literal_bytes(delta)


def _count_apply_tree_delta(c, args, kwargs, result):
    # Patched entries, the only ones carrying a delta, are the verified ones.
    c["verified_files"] += sum(hasattr(op, "delta") for _, op in args[1].entries)


SYNC_FIELDS = ("files_unchanged", "files_patched", "files_created", "files_deleted")
# (module, attribute, counter); a dotted attribute is a method of a class.
BOUNDARIES = [
    ("layer_store", "FileTree.__init__", _count_entries),
    ("layer_store", "materialize_entry", _count_result_bytes),
    ("layer_store", "advance_memory", None),
    ("guest", "build_guest", None),
    ("guest", "checkpoint", None),
    ("guest", "restore", None),
    ("delta_sync", "sync_tree", _count_sync_tree),
    ("delta_sync", "compute_signature", _count_signature),
    ("delta_sync", "compute_delta", _count_compute_delta),
    ("delta_sync", "apply_delta", _count_result_bytes),
    ("delta_sync", "apply_tree_delta", _count_apply_tree_delta),
    ("netsim", "transfer_time", None),
    ("migrator", "run_migration", None),
    ("calibrate", "fit_cost_model", None),
]
# Boundaries whose bytes are reported as ``mb`` and ``mb_per_s``.
BYTE_COUNTED = ("layer_store.materialize_entry", "delta_sync.compute_signature",
                "delta_sync.compute_delta", "delta_sync.apply_delta")
# Boundaries whose tracemalloc peak a memory tracer records.  tracemalloc
# runs only inside these calls, and it slows them several times over, so
# the worker runs the memory tracer in a pass of its own.
PEAK_MEMORY = {"delta_sync.compute_delta"}


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.removesuffix('.__init__')}"


class Tracer:
    def __init__(self, peak_memory: bool = False):
        self.peak_memory = peak_memory
        self.spans: list[Span | None] = []
        self.counters: dict[str, defaultdict] = defaultdict(lambda: defaultdict(float))
        self.op: int | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        peak = self.peak_memory and name in PEAK_MEMORY

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(index)
            own_tracing = peak and not tracemalloc.is_tracing()
            if own_tracing:
                tracemalloc.start()
            start = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.process_time()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self.op)
                counters = self.counters[name]
                counters["calls"] += 1
                if own_tracing:
                    counters["peak_bytes"] = max(counters["peak_bytes"], tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        return traced


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "layermig" or name.startswith("layermig."))]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every boundary for the duration of the block."""
    patches: list[tuple[object, str, object]] = []
    try:
        for module_name, attr, count in BOUNDARIES:
            module = importlib.import_module(f"layermig.{module_name}")
            name = span_name(module_name, attr)
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                patches.append((owner, method, original))
                setattr(owner, method, tracer.wrap(name, original, count))
                continue
            original = getattr(module, attr)
            wrapper = tracer.wrap(name, original, count)
            for holder in _package_modules():
                for key, value in list(vars(holder).items()):
                    if value is original:
                        patches.append((holder, key, original))
                        setattr(holder, key, wrapper)
        yield tracer
    finally:
        for owner, key, original in reversed(patches):
            setattr(owner, key, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children may overlap one another; the union of their intervals,
    clipped to the parent, is what gets subtracted.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children.get(index, ())):
            a, b = max(a, span.start), min(b, span.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append((span.end - span.start) - covered)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int, peak_bytes: float = 0.0) -> dict[str, float]:
    """Per-layer metrics per traced pass (rates, ratios and peaks are
    not divided).  Every boundary reports, with zeros when not called.
    ``peak_bytes`` is the ``compute_delta`` peak from a memory tracer."""
    spans = tracer.spans
    selfs = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    features_s = 0.0
    for span, own in zip(spans, selfs):
        self_s[span.name] += own
        if span.name == "migrator.run_migration" and span.parent is not None \
                and spans[span.parent].name == "calibrate.fit_cost_model":
            features_s += span.end - span.start

    out: dict[str, float] = {}
    for module_name, attr, _ in BOUNDARIES:
        name = span_name(module_name, attr)
        c = tracer.counters[name]
        out[f"{name}.calls"] = c["calls"] / passes
        out[f"{name}.self_s"] = self_s[name] / passes
    for field in SYNC_FIELDS:
        out[f"delta_sync.sync_tree.{field}"] = tracer.counters["delta_sync.sync_tree"][field] / passes
    out["layer_store.FileTree.entries"] = tracer.counters["layer_store.FileTree"]["entries"] / passes
    for name in BYTE_COUNTED:
        moved = tracer.counters[name]["bytes"]
        out[f"{name}.mb"] = moved / MB / passes
        out[f"{name}.mb_per_s"] = _ratio(moved / MB, self_s[name])
    delta = tracer.counters["delta_sync.compute_delta"]
    out["delta_sync.compute_delta.peak_mb"] = peak_bytes / MB
    out["delta_sync.compute_delta.copy_ratio"] = _ratio(delta["copy_bytes"], delta["bytes"])
    out["delta_sync.apply_tree_delta.verified_files"] = (
        tracer.counters["delta_sync.apply_tree_delta"]["verified_files"] / passes)
    out["calibrate.features_s"] = features_s / passes
    out["trace.spans"] = len(spans) / passes
    return out
