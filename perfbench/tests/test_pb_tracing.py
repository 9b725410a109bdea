"""Span arithmetic on a fake clock, and install/uninstall of the wrappers."""

import inspect
import sys

import pytest

from perfbench import tracing
from perfbench.tracing import OP_KEY, Recorder


class FakeClock:
    """perf_counter_ns stand-in: time moves only when the test says so."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, ns):
        self.now += ns


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(tracing, "perf_counter_ns", fake)
    return fake


def test_self_time_is_duration_minus_wrapped_children(clock):
    rec = Recorder()

    def leaf():
        clock.advance(5)

    hot_leaf = tracing._hot_wrapper(rec, "lsm.get", leaf)

    def middle():
        clock.advance(10)
        hot_leaf()
        hot_leaf()
        clock.advance(1)

    span_middle = tracing._span_wrapper(rec, "engine.pipeline", middle)

    def outer():
        clock.advance(100)
        span_middle()
        hot_leaf()
        clock.advance(2)

    span_outer = tracing._span_wrapper(rec, "engine.stack_run", outer)

    op = rec.begin_op("q/H1")
    clock.advance(3)
    span_outer()
    rec.end_op(op)
    rec.finish()

    summary = rec.summary()
    assert summary["lsm.get"] == {"calls": 3, "busy_ns": 15, "self_ns": 15}
    assert summary["engine.pipeline"] == {
        "calls": 1, "busy_ns": 21, "self_ns": 11}
    assert summary["engine.stack_run"] == {
        "calls": 1, "busy_ns": 128, "self_ns": 102}
    assert summary[OP_KEY] == {"calls": 1, "busy_ns": 131, "self_ns": 3}
    # Self times partition the traced time: nothing lost, nothing twice.
    assert sum(rec.layer_self_ns().values()) == 131
    assert rec.layer_self_ns()["lsm"] == 15
    # Hot calls land on the span they were made from, not one span each.
    spans = {span.key: span for span in rec.spans}
    assert spans["engine.pipeline"].hot["lsm.get"][:2] == [2, 10]
    assert spans["engine.stack_run"].hot["lsm.get"][:2] == [1, 5]
    assert spans["engine.pipeline"].parent is spans["engine.stack_run"]
    assert all(span.op == "q/H1" for span in rec.spans)
    assert rec.durations("lsm.get") == [5, 5, 5]


def test_reentrant_hot_call_is_busy_once(clock):
    rec = Recorder()

    def recurse(depth):
        clock.advance(4)
        if depth:
            wrapped(depth - 1)

    wrapped = tracing._hot_wrapper(rec, "query.eval_mask", recurse)
    wrapped(2)
    rec.finish()
    assert rec.summary()["query.eval_mask"] == {
        "calls": 3, "busy_ns": 12, "self_ns": 12}
    assert rec.durations("query.eval_mask") == [12]


def test_generator_is_busy_only_inside_next(clock):
    rec = Recorder()

    def get():
        clock.advance(3)

    hot_get = tracing._hot_wrapper(rec, "lsm.get", get)

    def lookup():
        for _ in range(2):
            clock.advance(7)
            hot_get()
            yield "row"

    wrapped = tracing._gen_wrapper(rec, "relational.index_lookup", lookup)
    for _row in wrapped():
        clock.advance(1000)          # the consumer's time is not the scan's
    rec.finish()
    summary = rec.summary()
    assert summary["relational.index_lookup"] == {
        "calls": 1, "busy_ns": 20, "self_ns": 14}
    assert summary["lsm.get"]["busy_ns"] == 6
    assert rec.root.self_ns == 2000


def test_chrome_export_has_one_complete_event_per_span(clock):
    rec = Recorder()
    op = rec.begin_op("x")
    clock.advance(2000)
    rec.end_op(op)
    rec.finish()
    events = rec.to_chrome()["traceEvents"]
    complete = [event for event in events if event["ph"] == "X"]
    assert len(complete) == 1
    assert complete[0]["name"] == OP_KEY
    assert complete[0]["dur"] == 2.0 and complete[0]["args"]["op"] == "x"


def _targets():
    for _key, _kind, module_name, class_name, attr in tracing.WRAPS:
        module = __import__(module_name, fromlist=["_"])
        owner = module if class_name is None else getattr(module, class_name)
        yield owner, attr


def test_wrappers_are_fully_uninstalled():
    import repro.engine.stacks as stacks
    import repro.query.optimizer as optimizer
    from repro.lsm.store import LSMTree
    from repro.relational.encoding import RecordCodec

    before = [inspect.getattr_static(owner, attr)
              for owner, attr in _targets()]
    build_plan = optimizer.build_plan
    get, projector = LSMTree.get, RecordCodec.batch_projector
    assert not tracing.installed()
    with tracing.tracing(Recorder()):
        assert tracing.installed()
        assert LSMTree.get is not get
        # Functions imported by name are swapped in the importing module.
        assert stacks.build_plan is not build_plan
    assert not tracing.installed()
    after = [inspect.getattr_static(owner, attr)
             for owner, attr in _targets()]
    assert all(a is b for a, b in zip(after, before))
    assert stacks.build_plan is build_plan
    assert LSMTree.get is get and RecordCodec.batch_projector is projector
    leftovers = [
        (name, attr) for name, module in list(sys.modules.items())
        if name.startswith("repro") for attr, value in vars(module).items()
        if getattr(value, "__module__", None) == tracing.__name__]
    assert leftovers == []


def test_uninstall_survives_an_exception():
    with pytest.raises(RuntimeError):
        with tracing.tracing(Recorder()):
            raise RuntimeError("boom")
    assert not tracing.installed()
