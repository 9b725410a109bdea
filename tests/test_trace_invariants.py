"""Span-tree invariants of traces exported from real executions.

Every execution trace must be a well-formed Chrome ``trace_event``
document whose spans nest inside the root execution span, whose busy
spans never overlap on a serialized resource track, and whose durations
reconcile with the :class:`ExecutionReport` the same run produced.
Traces are fully deterministic, so two identical runs must serialize to
byte-identical JSON.
"""

import json

import pytest

from repro.context import ExecutionContext
from repro.engine.cooperative import (DEVICE_RESOURCE, EXEC_TRACK,
                                      HOST_RESOURCE, LINK_RESOURCE)
from repro.engine.stacks import Stack, StackRunner
from repro.sim import Tracer
from repro.storage.topology import Topology
from repro.workloads.job_queries import query

from tests.conftest import MINI_JOIN_SQL

RESOURCES = (LINK_RESOURCE, DEVICE_RESOURCE, HOST_RESOURCE)


@pytest.fixture
def runner(mini_catalog, kv_db, flash):
    device = Topology.single(flash=flash).device
    return StackRunner(mini_catalog, kv_db, device, buffer_scale=0.001)


def traced_run(runner, stack, split_index=None):
    tracer = Tracer()
    report = runner.run(MINI_JOIN_SQL, stack, split_index=split_index,
                        ctx=ExecutionContext(tracer=tracer))
    return report, tracer


def busy_spans(tracer, resource):
    return sorted((s for s in tracer.spans
                   if s.track == f"resource/{resource}"),
                  key=lambda s: (s.start, s.end))


def root_span(tracer):
    (root,) = [s for s in tracer.spans if s.track == EXEC_TRACK]
    return root


ALL_STRATEGIES = [(Stack.BLK, None), (Stack.NATIVE, None),
                  (Stack.NDP, None), (Stack.HYBRID, 0),
                  (Stack.HYBRID, 1), (Stack.HYBRID, 2)]


class TestSpanTree:
    @pytest.mark.parametrize("stack,split", ALL_STRATEGIES)
    def test_exactly_one_root_span(self, runner, stack, split):
        report, tracer = traced_run(runner, stack, split)
        root = root_span(tracer)
        assert root.start == 0.0
        assert root.end == pytest.approx(report.total_time)
        assert root.args["strategy"] == report.strategy

    @pytest.mark.parametrize("stack,split", ALL_STRATEGIES)
    def test_spans_nest_inside_root(self, runner, stack, split):
        report, tracer = traced_run(runner, stack, split)
        root = root_span(tracer)
        for span in tracer.spans:
            assert span.start >= -1e-12, span
            assert span.end <= root.end + 1e-9, span
            if span.parent is not None:
                assert span.parent == root.id

    @pytest.mark.parametrize("stack,split",
                             [(Stack.NDP, None), (Stack.HYBRID, 0),
                              (Stack.HYBRID, 1), (Stack.HYBRID, 2)])
    def test_serialized_resources_never_overlap(self, runner, stack, split):
        _, tracer = traced_run(runner, stack, split)
        for resource in RESOURCES:
            spans = busy_spans(tracer, resource)
            for a, b in zip(spans, spans[1:]):
                assert b.start >= a.end - 1e-12, (
                    f"{resource}: busy spans [{a.start}, {a.end}) and "
                    f"[{b.start}, {b.end}) overlap")

    @pytest.mark.parametrize("split", [0, 1, 2])
    def test_busy_spans_reconcile_with_resource_stats(self, runner, split):
        report, tracer = traced_run(runner, Stack.HYBRID, split)
        for resource in RESOURCES:
            span_total = sum(s.duration
                             for s in busy_spans(tracer, resource))
            assert span_total == pytest.approx(
                report.resource_stats[resource]["busy_time"]), resource

    def test_host_breakdown_spans_fill_total_time(self, runner):
        report, tracer = traced_run(runner, Stack.BLK)
        compute = [s for s in tracer.spans if s.track == "host/compute"]
        assert compute
        assert sum(s.duration for s in compute) == pytest.approx(
            report.total_time)
        # Sequential layout: each span starts where the previous ended.
        for a, b in zip(compute, compute[1:]):
            assert b.start == pytest.approx(a.end)

    def test_phase_spans_mirror_timeline(self, runner):
        report, tracer = traced_run(runner, Stack.HYBRID, 1)
        phase_spans = [s for s in tracer.spans
                       if s.track.startswith(("host/", "device/"))]
        assert len(phase_spans) == len(report.timeline)
        timeline = sorted((p.start, p.end, f"{p.actor}/{p.kind}")
                          for p in report.timeline)
        spans = sorted((s.start, s.end, s.track) for s in phase_spans)
        for (ps, pe, ptrack), (ss, se, strack) in zip(timeline, spans):
            assert strack == ptrack
            assert ss == pytest.approx(ps)
            assert se == pytest.approx(pe)

    def test_compute_spans_carry_counter_deltas(self, runner):
        _, tracer = traced_run(runner, Stack.HYBRID, 1)
        host_compute = [s for s in tracer.spans
                        if s.track == "host/compute" and "counters" in s.args]
        assert host_compute
        for span in host_compute:
            assert all(v > 0 for v in span.args["counters"].values())


class TestDeterminism:
    @pytest.mark.parametrize("stack,split", ALL_STRATEGIES)
    def test_two_runs_byte_identical(self, runner, stack, split):
        _, first = traced_run(runner, stack, split)
        _, second = traced_run(runner, stack, split)
        assert first.dumps() == second.dumps()

    def test_exported_json_is_valid_chrome_trace(self, runner):
        _, tracer = traced_run(runner, Stack.HYBRID, 1)
        payload = json.loads(tracer.dumps())
        assert payload["displayTimeUnit"] == "ms"
        kinds = {event["ph"] for event in payload["traceEvents"]}
        assert {"M", "X", "i"} <= kinds
        for event in payload["traceEvents"]:
            if event["ph"] == "X":
                assert event["dur"] >= 0.0
                assert event["ts"] >= 0.0


class TestReportIntegration:
    def test_trace_metrics_merged_into_report_dict(self, runner):
        report, tracer = traced_run(runner, Stack.HYBRID, 1)
        payload = report.to_dict()
        assert payload["trace_metrics"] == tracer.metrics()
        assert payload["trace_metrics"]["spans"] > 0

    def test_untraced_run_has_empty_metrics(self, runner):
        report = runner.run(MINI_JOIN_SQL, Stack.HYBRID, split_index=1)
        assert report.trace_metrics == {}

    def test_run_all_splits_accepts_ctx_factory(self, runner):
        tracers = {}

        def factory(name):
            tracers[name] = Tracer()
            return ExecutionContext(tracer=tracers[name])

        reports = runner.run_all_splits(MINI_JOIN_SQL,
                                        ctx_factory=factory)
        for name, report in reports.items():
            if isinstance(report, Exception):
                continue
            assert report.trace_metrics == tracers[name].metrics(), name
            assert root_span(tracers[name]).args["strategy"] == name


class TestJobQueryTrace:
    def test_job_query_trace_invariants(self, job_env):
        tracer = Tracer()
        report = job_env.run(query("8c"), Stack.HYBRID, split_index=1,
                             ctx=ExecutionContext(tracer=tracer))
        root = root_span(tracer)
        assert root.end == pytest.approx(report.total_time)
        for resource in RESOURCES:
            spans = busy_spans(tracer, resource)
            for a, b in zip(spans, spans[1:]):
                assert b.start >= a.end - 1e-12
        assert json.loads(tracer.dumps())


class TestTraceCli:
    def test_run_trace_dir_writes_valid_trace(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["--scale", "0.0002", "run", "1a", "--stack", "hybrid",
                     "--split", "1", "--trace-dir", str(tmp_path)]) == 0
        text = capsys.readouterr().out
        assert "trace written to" in text
        assert "ui.perfetto.dev" in text
        payload = json.loads((tmp_path / "1a-H1.json").read_text())
        assert payload["traceEvents"]
