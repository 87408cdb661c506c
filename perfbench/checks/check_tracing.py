"""Self time on synthetic spans, and wrapper installation and removal."""

import sys

import pytest

import helpers  # noqa: F401  (puts perfbench/ and src/ on sys.path)
import layermig
import layermig.calibrate  # noqa: F401  (a traced module; imported before any snapshot)
import tracer as tracing
import worker
from tracer import Span


def test_self_time_subtracts_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, None, 1),
        Span("a", 1.0, 4.0, 0, 1),
        Span("b", 3.0, 6.0, 0, 1),    # overlaps a: together they cover [1, 6]
        Span("c", 8.0, 12.0, 0, 1),   # ends after root: only [8, 10] counts
        Span("d", 1.5, 2.5, 1, 1),    # grandchild: covers part of a, not of root twice
        Span("e", 2.0, 2.2, 1, 1),    # inside d's interval, a sibling of d
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0, 0.2])


def test_self_time_of_leaves_and_identical_children():
    spans = [
        Span("root", 0.0, 4.0, None, 7),
        Span("x", 1.0, 2.0, 0, 7),
        Span("y", 1.0, 2.0, 0, 7),
        Span("z", 2.0, 3.0, 0, 7),    # touches x and y end to end
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 1.0, 1.0, 1.0])


def _snapshot() -> dict:
    state = {name: dict(vars(module)) for name, module in sys.modules.items()
             if name == "layermig" or name.startswith("layermig.")}
    state["FileTree"] = dict(vars(layermig.FileTree))
    return state


def _assert_unchanged(before: dict, after: dict) -> None:
    assert before.keys() == after.keys()
    for name, attrs in before.items():
        assert attrs.keys() == after[name].keys(), name
        changed = [key for key, value in attrs.items() if after[name][key] is not value]
        assert not changed, (name, changed)


class Probe:
    """A one-op workload that records the functions installed while it runs."""

    def __init__(self):
        self.seen = []

    def pass_ops(self):
        return [("probe", self.op)]

    def op(self):
        self.seen.append((layermig.run_migration, layermig.migrator.sync_tree,
                          layermig.delta_sync.compute_delta, layermig.FileTree.__init__))
        return None

    def check(self, key, out):
        return "ok"


def _originals(state):
    return (state["layermig"]["run_migration"], state["layermig.migrator"]["sync_tree"],
            state["layermig.delta_sync"]["compute_delta"], state["FileTree"]["__init__"])


def test_untraced_run_installs_no_wrapper():
    before = _snapshot()
    probe = Probe()
    worker.run_passes(probe, 2, 0.0, worker.Tally(), {})
    assert all(a is b for seen in probe.seen for a, b in zip(seen, _originals(before)))
    _assert_unchanged(before, _snapshot())


def test_traced_run_wraps_boundaries_then_restores_them():
    before = _snapshot()
    probe = Probe()
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        worker.run_passes(probe, 1, 0.0, worker.Tally(), {}, tracer)
    assert all(a is not b for a, b in zip(probe.seen[0], _originals(before)))
    _assert_unchanged(before, _snapshot())


def test_restores_after_an_exception():
    before = _snapshot()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            raise RuntimeError("op failed")
    _assert_unchanged(before, _snapshot())


def test_spans_nest_under_their_callers():
    tracer = tracing.Tracer()
    tree = layermig.FileTree({"a/b.bin": layermig.layer_store.LiteralContent(b"xy")})
    with tracing.installed(tracer):
        tracer.op = 42
        layermig.sync_tree(layermig.FileTree(), tree)
    names = [span.name for span in tracer.spans]
    assert names == ["layer_store.FileTree", "delta_sync.sync_tree"]
    inner, outer = tracer.spans
    assert inner.parent is None and outer.parent is None and inner.op == outer.op == 42
    metrics = tracing.layer_metrics(tracer, passes=1)
    assert metrics["delta_sync.sync_tree.files_created"] == 1
    assert metrics["delta_sync.compute_delta.calls"] == 0
