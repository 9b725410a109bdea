"""Scatter-gather cluster execution: correctness, determinism, faults.

The load-bearing claim of ``repro.cluster`` is that a scatter-gather
run over any device count returns *row-identical* results to
single-device serial execution (docs/cluster.md has the merge
argument).  These tests pin that differentially over the representative
JOB subset, plus the cluster-specific surfaces: the report's ``cluster``
block and per-device resource stats, byte-for-byte determinism,
single-device-failure re-execution, empty partitions, and the
scheduler's cluster placement mode.
"""

import json
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterFaultPlan, DeviceCluster, SpeculationPolicy
from repro.context import ExecutionContext
from repro.engine.stacks import Stack
from repro.errors import DeadlineExceededError, PlanError
from repro.faults import (CommandFaultModel, FaultPlan, FaultWindow,
                          FlashFaultModel, RetryPolicy, SlowDeviceModel)
from repro.sched import ClosedLoopArrivals, WorkloadScheduler
from repro.sim import device_resource_names
from repro.storage.topology import PartitionSpec, Topology
from repro.workloads.job_queries import query

from tests.test_differential_job import REPRESENTATIVE


@pytest.fixture(scope="module")
def cluster2(job_env):
    """Two devices, range partitioning (the sweep's default layout)."""
    return DeviceCluster(job_env, n_devices=2,
                         partitioner=PartitionSpec("range", seed=0))


@pytest.fixture(scope="module")
def cluster4_hash(job_env):
    """Four devices, hash partitioning (logical scatter)."""
    return DeviceCluster(job_env, n_devices=4,
                         partitioner=PartitionSpec("hash", seed=0))


def serial_rows(job_env, name):
    plan = job_env.runner.plan(query(name))
    return plan, job_env.run(plan, Stack.BLK).result.sorted_rows()


class TestDifferential:
    """Cluster rows == serial rows, every representative query."""

    @pytest.mark.parametrize("name", REPRESENTATIVE)
    def test_two_device_range_matches_serial(self, job_env, cluster2,
                                             name):
        plan, baseline = serial_rows(job_env, name)
        report = cluster2.run(plan)
        assert report.result.sorted_rows() == baseline, name
        assert report.cluster["n_devices"] == 2

    @pytest.mark.parametrize("name", REPRESENTATIVE)
    def test_four_device_hash_matches_serial(self, job_env, cluster4_hash,
                                             name):
        plan, baseline = serial_rows(job_env, name)
        report = cluster4_hash.run(plan)
        assert report.result.sorted_rows() == baseline, name
        assert report.cluster["partitioner"]["kind"] == "hash"


class TestSingleDeviceEquivalence:
    """n_devices=1 is byte-for-byte the serial hybrid path."""

    @pytest.mark.parametrize("name", ["1a", "8c"])
    def test_rows_and_total_time_identical(self, job_env, name):
        cluster = DeviceCluster(job_env, n_devices=1)
        plan = job_env.runner.plan(query(name))
        split = plan.table_count - 1
        serial = job_env.run(plan, Stack.HYBRID, split_index=split)
        merged = cluster.run(plan, split_index=split)
        assert merged.result.sorted_rows() == serial.result.sorted_rows()
        assert merged.total_time == serial.total_time


class TestReportShape:
    def test_cluster_block_and_per_device_resources(self, cluster2):
        report = cluster2.run(query("8c"))
        block = report.cluster
        assert block["n_devices"] == 2
        assert block["partitioner"] == {"kind": "range", "seed": 0,
                                        "n_partitions": 2}
        assert block["driving_table"] == "role_type"
        assert len(block["partitions"]) == 2
        assert block["failed_devices"] == []
        for index in range(2):
            link, core = device_resource_names(index)
            assert link in report.resource_stats
            assert core in report.resource_stats
        assert "host_cpu" in report.resource_stats

    def test_utilization_never_exceeds_one(self, cluster4_hash):
        report = cluster4_hash.run(query("8c"))
        for name, stats in report.resource_stats.items():
            assert 0.0 <= stats["utilization"] <= 1.0 + 1e-9, name

    def test_split_pinning_places_every_partition_at_hk(self, cluster2):
        report = cluster2.run(query("1a"), split_index=0)
        for part in report.cluster["partitions"]:
            assert part["placement"].startswith("H0@d"), part
        assert report.split_index == 0

    def test_split_out_of_range_is_a_plan_error(self, job_env, cluster2):
        plan = job_env.runner.plan(query("1a"))
        for split in (plan.table_count, 99, -1):
            with pytest.raises(PlanError, match="out of range"):
                cluster2.run(plan, split_index=split)
        deepest = plan.table_count - 1
        report = cluster2.run(plan, split_index=deepest)
        assert report.split_index == deepest
        for part in report.cluster["partitions"]:
            assert part["placement"].startswith(f"H{deepest}@d"), part

    def test_report_round_trips_to_json(self, cluster2):
        payload = cluster2.run(query("3b")).to_dict(include_timeline=True)
        assert payload["cluster"]["n_devices"] == 2
        assert json.loads(json.dumps(payload)) == payload


class TestDeterminism:
    def test_two_fresh_clusters_byte_identical(self, job_env):
        def run_once():
            cluster = DeviceCluster(
                job_env, n_devices=2,
                partitioner=PartitionSpec("range", seed=0))
            report = cluster.run(query("3b"))
            return json.dumps(report.to_dict(include_timeline=True),
                              sort_keys=True)

        assert run_once() == run_once()

    def test_benchmark_summary_deterministic(self, job_env):
        from repro.bench.cluster import run_cluster_benchmark

        def run_once():
            return json.dumps(
                run_cluster_benchmark(job_env, 2,
                                      query_names=["1a", "3b"],
                                      clients=2),
                sort_keys=True)

        assert run_once() == run_once()


class TestEmptyPartitions:
    def test_more_devices_than_driving_rows(self, job_env):
        # 1a drives from company_type (4 rows at this scale): an 8-way
        # range layout leaves 4 shards empty, which must contribute
        # nothing — not break the merge.
        cluster = DeviceCluster(job_env, n_devices=8,
                                partitioner=PartitionSpec("range", seed=0))
        plan, baseline = serial_rows(job_env, "1a")
        report = cluster.run(plan)
        placements = [part["placement"]
                      for part in report.cluster["partitions"]]
        assert placements.count("empty") == 4
        assert report.result.sorted_rows() == baseline


class TestDeviceFailure:
    def test_failed_device_partition_reexecutes_elsewhere(self, job_env):
        cluster = DeviceCluster(job_env, n_devices=2,
                                partitioner=PartitionSpec("range", seed=0))
        plan, baseline = serial_rows(job_env, "1a")
        faults = ClusterFaultPlan(plans={0: FaultPlan(
            seed=1, commands=CommandFaultModel(fail_first=50))})
        report = cluster.run(plan, ctx=ExecutionContext(faults=faults))

        assert report.result.sorted_rows() == baseline
        assert report.cluster["failed_devices"] == [0]
        (failure,) = report.cluster["failures"]
        assert failure["device"] == 0
        assert failure["retries"] > 0
        part0 = report.cluster["partitions"][0]
        assert part0["attempted_devices"] == [0]
        assert "@d0" not in part0["placement"]
        assert report.retries > 0

    def test_all_devices_failed_falls_back_to_host(self, job_env):
        cluster = DeviceCluster(job_env, n_devices=2,
                                partitioner=PartitionSpec("range", seed=0))
        plan, baseline = serial_rows(job_env, "1a")
        storm = FaultPlan(seed=1,
                          commands=CommandFaultModel(fail_first=500))
        report = cluster.run(
            plan, ctx=ExecutionContext(faults=ClusterFaultPlan(
                default=storm)))
        assert report.result.sorted_rows() == baseline
        assert report.cluster["failed_devices"] == [0, 1]
        placements = {part["placement"]
                      for part in report.cluster["partitions"]}
        assert placements == {"host-fallback"}

    def test_merged_fault_counts_are_the_partitions_draws(
            self, job_env, monkeypatch):
        cluster = DeviceCluster(job_env, n_devices=2,
                                partitioner=PartitionSpec("range", seed=0))
        injectors = []
        for executor in cluster.executors:
            def recording(*args, _prepare=executor.prepare_split, **kwargs):
                prepared = _prepare(*args, **kwargs)
                injectors.append(prepared.injector)
                return prepared
            monkeypatch.setattr(executor, "prepare_split", recording)
        faults = FaultPlan(seed=3,
                           flash=FlashFaultModel(probability=0.5),
                           commands=CommandFaultModel(fail_first=1))
        report = cluster.run(query("8c"),
                             ctx=ExecutionContext(faults=faults))

        drawn = Counter()
        for injector in injectors:
            drawn.update(injector.faults_injected())
        assert len(injectors) >= 2
        assert report.retries > 0
        assert report.faults_injected == dict(sorted(drawn.items()))
        assert report.faults_injected["transient_command"] >= 1
        assert report.faults_injected["flash_ecc_retry"] > 0

    def test_plan_for_defaults(self):
        plan = FaultPlan(seed=3)
        faults = ClusterFaultPlan(plans={1: plan})
        assert faults.plan_for(1) is plan
        assert faults.plan_for(0) is None
        assert ClusterFaultPlan(default=plan).plan_for(7) is plan


class TestSchedulerClusterMode:
    def test_workload_places_across_devices(self, job_env, cluster2):
        scheduler = WorkloadScheduler(job_env, cluster=cluster2)
        scheduler.submit_closed_loop(
            ["1a", "3b", "8c"], ClosedLoopArrivals(clients=2, seed=0))
        result = scheduler.run()

        assert len(result.completed()) == len(result.jobs)
        assert result.extras["cluster"]["n_devices"] == 2
        offloaded = [p for p in result.placements() if "@d" in p]
        assert offloaded, result.placements()
        baselines = {name: serial_rows(job_env, name)[1]
                     for name in ("1a", "3b", "8c")}
        for job in result.jobs:
            assert (job.report.result.sorted_rows()
                    == baselines[job.name]), job.label


class TestTopologyWiring:
    def test_cluster_topology_round_trip(self, job_env):
        topology = Topology.cluster(3, partitioner="hash",
                                    flash=job_env.device.flash)
        cluster = DeviceCluster(job_env, topology=topology)
        assert cluster.n_devices == 3
        assert cluster.partitioner.describe()["kind"] == "hash"
        # All devices mirror the environment's flash store.
        assert all(device.flash is job_env.device.flash
                   for device in cluster.devices)

    def test_device_count_mismatch_rejected(self, job_env):
        from repro.errors import ReproError

        topology = Topology.cluster(2, flash=job_env.device.flash)
        with pytest.raises(ReproError, match="disagrees"):
            DeviceCluster(job_env, n_devices=4, topology=topology)


def _straggler_faults(seed=3, slowdown=50.0, device=0):
    """A persistent 50x slowdown on one device, seeded."""
    return ClusterFaultPlan(plans={device: FaultPlan(
        seed=seed, slow=SlowDeviceModel(
            windows=(FaultWindow(0.0, 3600.0),), slowdown=slowdown))})


class TestSpeculation:
    """Straggler cloning: row-identical, audited, bounded makespan."""

    def test_policy_validation(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="factor"):
            SpeculationPolicy(factor=0.5)
        with pytest.raises(ReproError, match="quorum"):
            SpeculationPolicy(quorum=0.0)
        with pytest.raises(ReproError, match="quorum"):
            SpeculationPolicy(quorum=1.5)
        assert SpeculationPolicy().describe() == {"factor": 1.5,
                                                  "quorum": 0.5}

    def test_disabled_by_default_with_null_audit(self, job_env):
        cluster = DeviceCluster(job_env, n_devices=4,
                                partitioner=PartitionSpec("range", seed=0))
        report = cluster.run(query("1a"), split_index=0,
                             ctx=ExecutionContext(
                                 faults=_straggler_faults()))
        block = report.cluster["speculation"]
        assert block == {"policy": None, "clones": 0, "events": [],
                         "wasted_time": 0.0}

    def test_straggler_cloned_rows_identical_and_bounded(self, job_env):
        plan, baseline = serial_rows(job_env, "1a")
        layout = dict(n_devices=4,
                      partitioner=PartitionSpec("range", seed=0),
                      speculation=SpeculationPolicy(factor=1.5))
        reference = DeviceCluster(job_env, **layout).run(
            plan, split_index=0)
        faulted = DeviceCluster(job_env, **layout).run(
            plan, split_index=0,
            ctx=ExecutionContext(faults=_straggler_faults()))

        assert faulted.result.sorted_rows() == baseline
        block = faulted.cluster["speculation"]
        assert block["policy"] == {"factor": 1.5, "quorum": 0.5}
        assert block["clones"] >= 1
        clones = [event for event in block["events"]
                  if "straggler_device" in event]
        assert clones, "clone must be audited"
        for event in clones:
            assert {"partition", "clone", "at", "median",
                    "elapsed"} <= set(event)
        # Speculation waste is audited separately from fault waste.
        assert block["wasted_time"] >= 0.0
        # The clone rescues the makespan: the straggler's 50x partition
        # would otherwise dominate, speculation keeps it within the
        # chaos harness's degradation bound.
        assert faulted.total_time <= 1.5 * reference.total_time

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 16))
    def test_speculative_rows_identical_to_serial_any_seed(
            self, job_env, seed):
        plan, baseline = serial_rows(job_env, "1a")
        cluster = DeviceCluster(job_env, n_devices=4,
                                partitioner=PartitionSpec("range", seed=0),
                                speculation=SpeculationPolicy(factor=1.5))
        report = cluster.run(
            plan, split_index=0,
            ctx=ExecutionContext(faults=_straggler_faults(seed=seed)))
        assert report.result.sorted_rows() == baseline
        # And no DRAM reservation is live after cancelled losers.
        assert all(device.reserved_bytes == 0
                   for device in cluster.devices)

    def test_speculative_run_is_deterministic(self, job_env):
        def run_once():
            cluster = DeviceCluster(
                job_env, n_devices=4,
                partitioner=PartitionSpec("range", seed=0),
                speculation=SpeculationPolicy(factor=1.5))
            report = cluster.run(
                query("1a"), split_index=0,
                ctx=ExecutionContext(faults=_straggler_faults()))
            return json.dumps(report.to_dict(include_timeline=True),
                              sort_keys=True)

        assert run_once() == run_once()


class TestMultiFaultDegradation:
    """Any number of failures cascades through survivors to the host."""

    def test_two_of_three_devices_fail(self, job_env):
        plan, baseline = serial_rows(job_env, "1a")
        storm = CommandFaultModel(fail_first=500)
        faults = ClusterFaultPlan(plans={
            0: FaultPlan(seed=1, commands=storm),
            1: FaultPlan(seed=2, commands=storm)})
        cluster = DeviceCluster(job_env, n_devices=3,
                                partitioner=PartitionSpec("range", seed=0))
        report = cluster.run(plan, ctx=ExecutionContext(faults=faults))

        assert report.result.sorted_rows() == baseline
        assert report.cluster["failed_devices"] == [0, 1]
        for part in report.cluster["partitions"]:
            assert "@d0" not in part["placement"], part
            assert "@d1" not in part["placement"], part
        assert len(report.cluster["failures"]) >= 2

    def test_wasted_time_budget_short_circuits_to_host(self, job_env):
        plan, baseline = serial_rows(job_env, "1a")
        storm = FaultPlan(seed=1, commands=CommandFaultModel(
            fail_first=500))
        ctx = ExecutionContext(
            faults=ClusterFaultPlan(default=storm),
            retry_policy=RetryPolicy(wasted_time_budget=1e-9))
        cluster = DeviceCluster(job_env, n_devices=2,
                                partitioner=PartitionSpec("range", seed=0))
        report = cluster.run(plan, ctx=ctx)
        assert report.result.sorted_rows() == baseline
        placements = {part["placement"]
                      for part in report.cluster["partitions"]}
        assert placements <= {"host-fallback", "empty"}
        # The cap stopped the cascade: no survivor re-execution was
        # attempted after the first device's waste blew the budget.
        attempted = set()
        for part in report.cluster["partitions"]:
            attempted.update(part["attempted_devices"])
        assert attempted <= {0, 1}


class TestClusterDeadline:
    def test_deadline_cancels_and_raises_with_partial_audit(self, job_env):
        plan, _ = serial_rows(job_env, "1a")
        cluster = DeviceCluster(job_env, n_devices=2,
                                partitioner=PartitionSpec("range", seed=0))
        fault_free = cluster.run(plan)
        deadline = 0.25 * fault_free.total_time

        with pytest.raises(DeadlineExceededError) as excinfo:
            cluster.run(plan, ctx=ExecutionContext(deadline=deadline))
        error = excinfo.value
        assert error.deadline == deadline
        assert isinstance(error.partial["completed_partitions"], list)
        assert error.partial["cancelled"], "in-flight attempts recorded"
        # Cooperative cancellation released every pipeline reservation.
        assert all(device.reserved_bytes == 0
                   for device in cluster.devices)

    def test_generous_deadline_is_byte_identical_to_none(self, job_env):
        def run_once(ctx):
            cluster = DeviceCluster(
                job_env, n_devices=2,
                partitioner=PartitionSpec("range", seed=0))
            report = cluster.run(query("3b"), ctx=ctx)
            return json.dumps(report.to_dict(include_timeline=True),
                              sort_keys=True)

        assert run_once(None) == run_once(ExecutionContext(deadline=60.0))


class TestHeterogeneousCluster:
    def test_mixed_specs_still_row_identical(self, job_env):
        base = job_env.device.spec
        slow = replace(base, name=f"{base.name}-slow",
                       coremark=base.coremark / 4)
        topology = Topology.cluster(
            3, partitioner=PartitionSpec("range", seed=0),
            device_spec=base, flash=job_env.device.flash,
            link=job_env.device.link,
            device_specs=[None, slow, None])
        cluster = DeviceCluster(job_env, topology=topology)
        plan, baseline = serial_rows(job_env, "1a")
        report = cluster.run(plan)
        assert report.result.sorted_rows() == baseline
        assert cluster.devices[1].spec.name.endswith("-slow")
        # The slow device gets its own timing model; the others share
        # the environment's.
        timings = [executor.timing for executor in cluster.executors]
        assert timings[0] is job_env.runner.timing
        assert timings[2] is job_env.runner.timing
        assert timings[1] is not job_env.runner.timing

    def test_spec_list_length_mismatch_rejected(self, job_env):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="device_specs"):
            Topology.cluster(2, flash=job_env.device.flash,
                             device_specs=[None])

    def test_homogeneous_specs_share_timing_model(self, job_env):
        cluster = DeviceCluster(job_env, n_devices=2,
                                partitioner=PartitionSpec("range", seed=0))
        assert all(executor.timing is job_env.runner.timing
                   for executor in cluster.executors)
