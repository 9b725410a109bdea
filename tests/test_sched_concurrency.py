"""Concurrent workload scheduler (repro.sched).

Pins the contract of docs/concurrency.md: a seeded workload of JOB
queries on one shared simulated device + host completes with result rows
identical to serial execution, never over-subscribes the device DRAM
budget or any BusyResource, and reproduces its timeline byte for byte
from the same seed.
"""

import json
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.concurrency import percentile, run_concurrency_benchmark
from repro.context import ExecutionContext
from repro.core import DeviceLoad, ExecutionStrategy, PlanningContext
from repro.core.cost_model import MAX_PRICED_UTILIZATION
from repro.core.strategy import HybridDecision
from repro.engine.stacks import Stack
from repro.errors import ReproError
from repro.faults import CommandFaultModel, FaultPlan, FlashFaultModel
from repro.lsm.snapshot import SnapshotView
from repro.lsm.store import LSMTree
from repro.sched import (ClosedLoopArrivals, OpenLoopArrivals,
                         WorkloadScheduler, assign_clients)
from repro.workloads.job_queries import query
from repro.workloads.loader import build_environment

#: The acceptance mix: >= 8 queries spanning host-leaning and
#: device-leaning plans (same mix the benchmark defaults to).
MIX = ["1a", "2a", "3b", "4a", "6a", "8c", "16b", "17e"]
#: Cheap subset for the hypothesis sweeps.
FAST = ["1a", "2a", "3b", "4a", "6a"]


def run_closed(env, names, clients=4, think_time=0.0, seed=11, ctx=None,
               max_inflight=None):
    sched = WorkloadScheduler(env, ctx=ctx, max_inflight=max_inflight)
    sched.submit_closed_loop(names, ClosedLoopArrivals(
        clients=clients, think_time=think_time, seed=seed))
    return sched.run()


@pytest.fixture(scope="module")
def serial_rows(job_env):
    """Canonical host-only rows per query name, computed once."""
    rows = {}
    for name in MIX:
        plan = job_env.runner.plan(query(name))
        rows[name] = job_env.run(plan, Stack.NATIVE).result.sorted_rows()
    return rows


@pytest.fixture(scope="module")
def acceptance(job_env):
    """The >= 8-query closed-loop acceptance run, shared by assertions."""
    return run_closed(job_env, MIX, clients=4, think_time=0.001, seed=11)


class TestAcceptance:
    def test_all_queries_complete(self, acceptance):
        assert len(acceptance.jobs) == len(MIX)
        assert len(acceptance.completed()) == len(MIX)
        assert all(job.error is None for job in acceptance.jobs)

    def test_rows_identical_to_serial(self, acceptance, serial_rows):
        for job in acceptance.jobs:
            assert (job.report.result.sorted_rows()
                    == serial_rows[job.name]), job.label

    def test_queries_actually_overlap(self, acceptance):
        # The workload is concurrent, not accidentally serialized: some
        # query is admitted before an earlier one completes.
        intervals = sorted((job.admitted_at, job.completed_at)
                           for job in acceptance.jobs)
        assert any(intervals[i + 1][0] < intervals[i][1]
                   for i in range(len(intervals) - 1))

    def test_device_budget_respected(self, acceptance, job_env):
        assert 0 < acceptance.peak_reserved_bytes \
            <= acceptance.device_budget_bytes
        # All reservations released by the drain.
        assert job_env.device.reserved_bytes == 0

    def test_no_resource_oversubscription(self, acceptance):
        # BusyResource.stats() raises ResourceError past 100%; reaching
        # here means the run survived, but check the numbers anyway.
        assert acceptance.resource_stats
        for name, stats in acceptance.resource_stats.items():
            assert 0.0 <= stats["utilization"] <= 1.0 + 1e-9, name

    def test_latency_and_throughput_reported(self, acceptance):
        latencies = acceptance.latencies()
        assert len(latencies) == len(MIX)
        assert all(value > 0 for value in latencies)
        assert acceptance.queries_per_second() > 0
        p50 = percentile(latencies, 0.50)
        p99 = percentile(latencies, 0.99)
        assert 0 < p50 <= p99 <= max(latencies)

    def test_byte_for_byte_deterministic(self, job_env, acceptance):
        replay = run_closed(job_env, MIX, clients=4, think_time=0.001,
                            seed=11)
        first_payload = acceptance.to_dict(include_reports=True)
        second_payload = replay.to_dict(include_reports=True)
        # Plan-cache counters are cumulative state of the shared runner,
        # not timeline state: the replay hits where the first run
        # missed.  The *timeline* must still match byte for byte.
        first_cache = first_payload.pop("plan_cache")
        second_cache = second_payload.pop("plan_cache")
        assert (first_cache["hits"] + first_cache["misses"]
                <= second_cache["hits"] + second_cache["misses"])
        first = json.dumps(first_payload, sort_keys=True)
        second = json.dumps(second_payload, sort_keys=True)
        assert first == second

    def test_different_seed_changes_the_timeline(self, job_env,
                                                 acceptance):
        other = run_closed(job_env, MIX, clients=4, think_time=0.001,
                           seed=12)
        # Same queries, same rows — but the staggered/think schedule and
        # hence the makespan may move.  At minimum both runs are valid.
        assert len(other.completed()) == len(MIX)


class TestSchedulerInvariants:
    """Hypothesis sweeps over mixes, client counts and seeds."""

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(names=st.lists(st.sampled_from(FAST), min_size=1, max_size=5),
           clients=st.integers(min_value=1, max_value=4),
           seed=st.integers(min_value=0, max_value=999))
    def test_budget_rows_and_release(self, job_env, serial_rows, names,
                                     clients, seed):
        result = run_closed(job_env, names, clients=clients, seed=seed)
        assert len(result.completed()) == len(names)
        assert result.peak_reserved_bytes <= result.device_budget_bytes
        assert job_env.device.reserved_bytes == 0
        for stats in result.resource_stats.values():
            assert stats["utilization"] <= 1.0 + 1e-9
        for job in result.jobs:
            assert (job.report.result.sorted_rows()
                    == serial_rows[job.name]), job.label
            assert job.queue_wait >= 0
            assert job.latency > 0

    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(min_value=0, max_value=999),
           rate=st.floats(min_value=10.0, max_value=500.0))
    def test_open_loop_deterministic(self, job_env, seed, rate):
        def run():
            sched = WorkloadScheduler(job_env)
            sched.submit_open_loop(FAST, OpenLoopArrivals(
                rate_qps=rate, seed=seed))
            return sched.run()

        first, second = run(), run()
        first_payload = first.to_dict(include_reports=True)
        second_payload = second.to_dict(include_reports=True)
        # Cumulative runner state, not timeline state (see
        # test_byte_for_byte_deterministic).
        first_payload.pop("plan_cache")
        second_payload.pop("plan_cache")
        assert (json.dumps(first_payload, sort_keys=True)
                == json.dumps(second_payload, sort_keys=True))


class TestAdmissionControl:
    def test_max_inflight_serializes(self, job_env):
        free = run_closed(job_env, MIX, clients=4, seed=11)
        capped = run_closed(job_env, MIX, clients=4, seed=11,
                            max_inflight=1)
        assert len(capped.completed()) == len(MIX)
        # One-at-a-time admission cannot beat unconstrained admission.
        assert capped.makespan >= free.makespan
        # And truly serial: no two executions overlap.
        intervals = sorted((job.admitted_at, job.completed_at)
                           for job in capped.jobs)
        assert all(intervals[i + 1][0] >= intervals[i][1] - 1e-12
                   for i in range(len(intervals) - 1))

    def test_pressure_produces_queueing(self, job_env):
        sched = WorkloadScheduler(job_env)
        sched.submit_open_loop(MIX * 2, OpenLoopArrivals(
            rate_qps=2000.0, seed=3))
        result = sched.run()
        assert len(result.completed()) == len(MIX) * 2
        assert any(job.queue_wait > 0 for job in result.jobs)
        # Load-aware placement sheds marginal queries to the host under
        # this much pressure.
        assert result.placements().get("host-only", 0) > 0


class TestHostPlacement:
    """A host-placed job runs the native host-only plan over the capture
    its admission took: a serial native run's rows, counters and time,
    with seeks that share the snapshot seek memo."""

    def test_host_jobs_equal_serial_native_runs(self, job_env):
        sched = WorkloadScheduler(job_env)
        sched.submit_open_loop(MIX * 2, OpenLoopArrivals(
            rate_qps=2000.0, seed=3))
        hosted = [job for job in sched.run().jobs
                  if job.placement == "host-only"]
        # An overloaded device sheds most of the second round, repeats
        # included, to the host.
        assert len(hosted) > len({job.name for job in hosted}) > 1
        for job in hosted:
            serial = job_env.runner.run(job.plan, Stack.NATIVE)
            assert job.report.result.rows == serial.result.rows, job.label
            assert (job.report.result.columns
                    == serial.result.columns), job.label
            assert (job.report.host_counters.as_dict()
                    == serial.host_counters.as_dict()), job.label
            assert (job.report.host_processing_time
                    == serial.total_time), job.label

    def test_repeated_host_job_walks_no_keys(self):
        """The second host job of a query replays the first one's seeks:
        no live get in either, no snapshot get in the second."""
        env = build_environment(scale=0.0002, seed=7)
        walked = {}
        gets = {"live": 0, "snapshot": 0}

        def counting(kind, real):
            def get(tree, *args, **kwargs):
                gets[kind] += 1
                return real(tree, *args, **kwargs)
            return get

        real_start = WorkloadScheduler._start_host

        def start_host(scheduler, job, *args, **kwargs):
            before = dict(gets)
            real_start(scheduler, job, *args, **kwargs)
            walked[job.label] = {kind: gets[kind] - before[kind]
                                 for kind in gets}

        sched = WorkloadScheduler(env)
        sched.submit("8c", at=0.0)
        sched.submit("8c", at=0.0)
        host_only = HybridDecision(ExecutionStrategy.HOST_ONLY)
        with mock.patch.object(env.planner, "decide",
                               lambda plan, context=None: host_only), \
                mock.patch.object(LSMTree, "get",
                                  counting("live", LSMTree.get)), \
                mock.patch.object(SnapshotView, "get",
                                  counting("snapshot", SnapshotView.get)), \
                mock.patch.object(WorkloadScheduler, "_start_host",
                                  start_host):
            result = sched.run()
        assert result.placements() == {"host-only": 2}
        assert walked["8c#0"]["live"] == 0
        assert walked["8c#0"]["snapshot"] > 0
        assert walked["8c#1"] == {"live": 0, "snapshot": 0}
        first, second = (job.report for job in result.jobs)
        assert (first.host_counters.as_dict()
                == second.host_counters.as_dict())
        assert first.host_counters.index_seeks > 0


class TestLoadAwarePlacement:
    def test_load_scales_inflate_device_costs(self):
        idle = DeviceLoad()
        assert idle.compute_scale() == 1.0
        assert idle.transfer_scale() == 1.0
        hot = DeviceLoad(core_utilization=0.5, link_utilization=0.5,
                         reserved_fraction=0.5)
        assert hot.compute_scale() == pytest.approx(3.0)   # 1.5 / 0.5
        assert hot.transfer_scale() == pytest.approx(2.0)
        saturated = DeviceLoad(core_utilization=1.0, link_utilization=1.0)
        cap = 1.0 / (1.0 - MAX_PRICED_UTILIZATION)
        assert saturated.compute_scale() == pytest.approx(cap)
        assert saturated.transfer_scale() == pytest.approx(cap)

    def test_planner_decisions_shift_under_load(self, job_env):
        hot = DeviceLoad(core_utilization=0.94, link_utilization=0.94,
                         reserved_fraction=0.9)
        shifted = 0
        for name in MIX:
            plan = job_env.runner.plan(query(name))
            relaxed = job_env.planner.decide(plan)
            loaded = job_env.planner.decide(
                plan, context=PlanningContext(device_load=hot))
            for label, cost in loaded.estimated_costs.items():
                if label != "host-only" and label in relaxed.estimated_costs:
                    assert cost >= relaxed.estimated_costs[label]
            if (relaxed.strategy is not ExecutionStrategy.HOST_ONLY
                    and loaded.strategy is ExecutionStrategy.HOST_ONLY):
                shifted += 1
        assert shifted > 0   # a near-saturated device repels offloads


class TestFaultyWorkload:
    def test_mid_workload_fallback_keeps_rows(self, job_env, serial_rows):
        faults = FaultPlan(seed=5,
                           commands=CommandFaultModel(fail_first=8))
        result = run_closed(job_env, MIX, clients=4, seed=11,
                            ctx=ExecutionContext(faults=faults))
        assert len(result.completed()) == len(MIX)
        placements = result.placements()
        assert placements.get("host-fallback", 0) > 0
        for job in result.jobs:
            assert (job.report.result.sorted_rows()
                    == serial_rows[job.name]), job.label
            if job.placement == "host-fallback":
                assert job.report.fallback_from is not None
                assert job.report.retries > 0
                assert job.error is not None
        assert job_env.device.reserved_bytes == 0

    def test_interleaved_injectors_stay_separate(self, job_env):
        # One kernel interleaves every offload's flash pricing, each with
        # its own injector: a job placed at Hk draws exactly the faults a
        # serial run of its query at Hk draws.
        ctx = ExecutionContext(
            faults=FaultPlan(seed=3, flash=FlashFaultModel(probability=0.5)))
        sched = WorkloadScheduler(job_env, ctx=ctx)
        for name in ("1a", "8c", "6a", "17e"):
            sched.submit(name, at=0.0)
        offloaded = [job for job in sched.run().jobs
                     if job.placement.startswith("H")]
        assert len(offloaded) >= 2
        for job in offloaded:
            serial = job_env.runner.cooperative.run_split(
                job.plan, job.report.split_index, ctx)
            assert job.report.faults_injected["flash_ecc_retry"] > 0
            assert (job.report.faults_injected
                    == serial.faults_injected), job.label
        assert job_env.device.reserved_bytes == 0


class TestArrivals:
    def test_open_loop_is_seed_deterministic(self):
        spec = OpenLoopArrivals(rate_qps=100.0, seed=4)
        assert spec.schedule(MIX) == spec.schedule(MIX)
        other = OpenLoopArrivals(rate_qps=100.0, seed=5)
        assert spec.schedule(MIX) != other.schedule(MIX)
        times = [at for at, _ in spec.schedule(MIX)]
        assert times == sorted(times)
        assert all(at > 0 for at in times)

    def test_open_loop_rejects_bad_rate(self):
        with pytest.raises(ReproError):
            OpenLoopArrivals(rate_qps=0.0).schedule(MIX)

    def test_closed_loop_start_times(self):
        assert ClosedLoopArrivals(clients=3).start_times() == [0.0] * 3
        staggered = ClosedLoopArrivals(clients=3, stagger=0.01, seed=2)
        times = staggered.start_times()
        assert times == sorted(times)
        assert all(0.0 <= at <= 0.01 for at in times)
        assert times == staggered.start_times()
        with pytest.raises(ReproError):
            ClosedLoopArrivals(clients=0).start_times()

    def test_assign_clients_round_robin(self):
        queues = assign_clients(["a", "b", "c", "d", "e"], 2)
        assert queues == [["a", "c", "e"], ["b", "d"]]
        with pytest.raises(ReproError):
            assign_clients(["a"], 0)


class TestPercentile:
    def test_interpolates(self):
        values = [4.0, 1.0, 3.0, 2.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 4.0
        assert percentile(values, 0.5) == pytest.approx(2.5)

    def test_rejects_bad_input(self):
        with pytest.raises(ReproError):
            percentile([], 0.5)
        with pytest.raises(ReproError):
            percentile([1.0], 1.5)


class TestBenchmark:
    def test_summary_shape(self, job_env):
        summary = run_concurrency_benchmark(
            job_env, query_names=FAST, mode="closed", clients=2,
            think_time=0.001, seed=11, include_jobs=False)
        assert summary["schema_version"] == 1
        assert summary["mode"] == "closed"
        assert summary["queries"] == len(FAST)
        for key in ("p50", "p95", "p99", "mean", "max"):
            assert summary["latency"][key] > 0
        assert summary["queries_per_second"] > 0
        assert set(summary["resource_utilization"]) \
            == {"pcie_link", "device_core1", "host_cpu"}
        assert summary["device"]["peak_reserved_bytes"] \
            <= summary["device"]["budget_bytes"]
        assert "jobs" not in summary


class TestDeadlines:
    """Per-job deadlines: queued jobs shed, in-flight offloads cancelled.

    Calibrated against the job's own fault-free makespan so the tests
    hold at any dataset scale.  Deadline handling must keep exact
    reservation accounting — no device DRAM stays reserved and no
    BusyResource stays booked for a cancelled offload.
    """

    def _solo_makespan(self, env, name):
        sched = WorkloadScheduler(env)
        sched.submit(name, at=0.0)
        return sched.run().makespan

    def test_queued_job_shed_at_deadline(self, job_env):
        makespan = self._solo_makespan(job_env, "1a")
        sched = WorkloadScheduler(job_env, max_inflight=1)
        sched.submit("1a", at=0.0)
        sched.submit("1a", at=0.0)
        # Third job can never be admitted before its deadline expires.
        sched.submit("1a", at=0.0, deadline=0.5 * makespan)
        result = sched.run()

        assert len(result.completed()) == 2
        (shed,) = result.shed()
        assert shed.placement == "deadline-shed"
        assert shed.report is None
        assert shed.shed_at == pytest.approx(0.5 * makespan)
        assert "shed" in shed.error
        assert job_env.device.reserved_bytes == 0
        payload = result.to_dict()
        assert payload["schema_version"] == 3
        assert payload["shed_jobs"] == 1

    def test_inflight_offload_cancelled_at_deadline(self, job_env):
        makespan = self._solo_makespan(job_env, "8c")
        # Fault-free premise: 8c offloads (placement Hk, not host-only).
        sched = WorkloadScheduler(job_env)
        sched.submit("8c", at=0.0)
        baseline = sched.run().jobs[0]
        assert baseline.placement.startswith("H"), baseline.placement

        sched = WorkloadScheduler(job_env)
        sched.submit("8c", at=0.0, deadline=0.5 * makespan)
        result = sched.run()

        (job,) = result.jobs
        assert job.shed_at is not None
        assert job.report is None
        assert "offload cancelled" in job.error
        assert result.to_dict()["shed_jobs"] == 1
        # Exact accounting: the cancelled offload released its pipeline
        # reservation and gave back the unserved resource tail.
        assert job_env.device.reserved_bytes == 0
        for resource in sched.kernel.resources():
            assert resource.free_at <= job.shed_at + 1e-9, resource

    def test_context_deadline_is_the_default(self, job_env):
        makespan = self._solo_makespan(job_env, "1a")
        ctx = ExecutionContext(deadline=0.25 * makespan)
        sched = WorkloadScheduler(job_env, ctx=ctx, max_inflight=1)
        sched.submit("1a", at=0.0)
        sched.submit("1a", at=0.0)
        result = sched.run()
        assert result.jobs[0].deadline == 0.25 * makespan
        assert len(result.shed()) >= 1

    def test_generous_deadline_changes_nothing(self, job_env):
        def run_once(deadline):
            sched = WorkloadScheduler(job_env)
            for name in FAST:
                sched.submit(name, at=0.0, deadline=deadline)
            return json.dumps(sched.run().to_dict(), sort_keys=True)

        relaxed = json.loads(run_once(3600.0))
        unbounded = json.loads(run_once(None))
        for job, ref in zip(relaxed["jobs"], unbounded["jobs"]):
            assert job["deadline"] == 3600.0
            job["deadline"] = None
            assert job == ref
