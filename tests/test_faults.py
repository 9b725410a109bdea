"""Fault injection and graceful degradation (repro.faults).

Pins down the robustness contract of docs/robustness.md: fault plans are
deterministic and zero-cost when off, transient failures retry with
backoff in simulated time, exhausting the retries falls back to a
correct host-only execution, and every degradation leaves an audit trail
(report resilience fields, "faults" trace track).
"""

import pytest

from repro.bench.chaos import default_split
from repro.context import ExecutionContext
from repro.engine.stacks import Stack
from repro.errors import (DeviceOverloadError, ExecutionError, ReproError,
                          RetriesExhaustedError, TransientDeviceError)
from repro.faults import (FAULTS_TRACK, NULL_INJECTOR, NULL_PLAN,
                          CommandFaultModel, CoreFaultModel, DramFaultModel,
                          FaultPlan, FaultWindow, FlashFaultModel,
                          LinkFaultModel, RetryPolicy, as_injector)
from repro.sim import SimContext, Tracer
from repro.storage.flash import FlashDevice
from repro.workloads.job_queries import query

QUERY = "1a"


def _plan_and_split(job_env):
    plan = job_env.runner.plan(query(QUERY))
    return plan, default_split(job_env.runner, plan)


def _report_dict(report):
    return report.to_dict(include_rows=True, include_timeline=True)


class TestPlanBasics:
    def test_default_plan_is_disabled(self):
        assert not NULL_PLAN.enabled
        assert NULL_PLAN.injector() is NULL_INJECTOR
        assert as_injector(None) is NULL_INJECTOR
        assert as_injector(NULL_PLAN) is NULL_INJECTOR

    def test_enabled_plan_gets_fresh_injectors(self):
        plan = FaultPlan(commands=CommandFaultModel(fail_first=1))
        assert plan.enabled
        assert plan.injector() is not plan.injector()

    def test_error_hierarchy(self):
        assert issubclass(TransientDeviceError, ExecutionError)
        assert issubclass(RetriesExhaustedError, ExecutionError)
        assert issubclass(ExecutionError, ReproError)

    def test_invalid_models_rejected(self):
        with pytest.raises(ReproError):
            CommandFaultModel(probability=1.5)
        with pytest.raises(ReproError):
            FaultWindow(0.5, 0.1)
        with pytest.raises(ReproError):
            LinkFaultModel(slowdown=0.5)
        with pytest.raises(ReproError):
            RetryPolicy(max_retries=-1)

    def test_backoff_is_exponential(self):
        policy = RetryPolicy(backoff_base=1e-3, backoff_factor=2.0)
        assert policy.backoff(0) == 1e-3
        assert policy.backoff(2) == 4e-3


class TestZeroCostOff:
    def test_disabled_plan_is_byte_identical(self, job_env):
        plan, split = _plan_and_split(job_env)
        bare = job_env.run(plan, Stack.HYBRID, split_index=split)
        nulled = job_env.run(plan, Stack.HYBRID, split_index=split,
                             ctx=ExecutionContext(faults=NULL_PLAN))
        assert _report_dict(bare) == _report_dict(nulled)
        # Schema v2: the resilience block is always present; a clean run
        # reports it as all-zero.
        resilience = _report_dict(bare)["resilience"]
        assert resilience["retries"] == 0
        assert resilience["fallback_from"] is None
        assert resilience["faults_injected"] == {}

    def test_disabled_plan_full_ndp_identical(self, job_env):
        plan = job_env.runner.plan(query(QUERY))
        bare = job_env.run(plan, Stack.NDP)
        nulled = job_env.run(plan, Stack.NDP,
                             ctx=ExecutionContext(faults=FaultPlan(seed=99)))
        assert _report_dict(bare) == _report_dict(nulled)


class TestDeterminism:
    def test_same_seed_same_run(self, job_env):
        plan, split = _plan_and_split(job_env)
        faults = FaultPlan(seed=11,
                           commands=CommandFaultModel(probability=0.5),
                           flash=FlashFaultModel(probability=0.1))
        first = job_env.run(plan, Stack.HYBRID, split_index=split,
                            ctx=ExecutionContext(faults=faults))
        second = job_env.run(plan, Stack.HYBRID, split_index=split,
                             ctx=ExecutionContext(faults=faults))
        assert _report_dict(first) == _report_dict(second)

    def test_different_seed_differs(self, job_env):
        plan, split = _plan_and_split(job_env)
        def run(seed):
            return job_env.run(
                plan, Stack.HYBRID, split_index=split,
                ctx=ExecutionContext(faults=FaultPlan(
                    seed=seed,
                    commands=CommandFaultModel(probability=0.5))))
        reports = [run(seed) for seed in range(6)]
        assert len({report.retries for report in reports}) > 1


class TestRetries:
    def test_transient_failures_retry_and_succeed(self, job_env):
        plan, split = _plan_and_split(job_env)
        baseline = job_env.run(plan, Stack.NATIVE)
        faults = FaultPlan(commands=CommandFaultModel(fail_first=2))
        report = job_env.run(plan, Stack.HYBRID, split_index=split,
                             ctx=ExecutionContext(faults=faults))
        assert report.strategy == f"H{split}"
        assert report.fallback_from is None
        assert report.retries == 2
        assert report.faults_injected == {"transient_command": 2}
        assert report.wasted_device_time > 0.0
        assert (report.result.sorted_rows()
                == baseline.result.sorted_rows())

    def test_retries_are_charged_to_the_timeline(self, job_env):
        plan, split = _plan_and_split(job_env)
        clean = job_env.run(plan, Stack.HYBRID, split_index=split)
        faulted = job_env.run(
            plan, Stack.HYBRID, split_index=split,
            ctx=ExecutionContext(
                faults=FaultPlan(commands=CommandFaultModel(fail_first=2))))
        assert faulted.total_time > clean.total_time
        labels = [phase.label for phase in faulted.timeline]
        assert "retry backoff 1" in labels
        assert "retry backoff 2" in labels

    def test_exhaustion_raises_from_the_executor(self, job_env):
        plan, split = _plan_and_split(job_env)
        faults = FaultPlan(commands=CommandFaultModel(fail_first=8))
        with pytest.raises(RetriesExhaustedError) as excinfo:
            job_env.runner._cooperative.run_split(
                plan, split, ExecutionContext(faults=faults))
        failure = excinfo.value
        assert failure.strategy == f"H{split}"
        assert failure.retries == 1 + faults.retry.max_retries
        assert failure.wasted_time > 0.0


class TestFallback:
    def test_exhausted_split_falls_back_to_host(self, job_env):
        plan, split = _plan_and_split(job_env)
        baseline = job_env.run(plan, Stack.NATIVE)
        faults = FaultPlan(commands=CommandFaultModel(fail_first=8))
        report = job_env.run(plan, Stack.HYBRID, split_index=split,
                             ctx=ExecutionContext(faults=faults))
        assert report.strategy == "host-only(fallback)"
        assert report.fallback_from == f"H{split}"
        assert report.retries == 1 + faults.retry.max_retries
        assert report.wasted_device_time > 0.0
        assert report.total_time > baseline.total_time
        assert (report.result.sorted_rows()
                == baseline.result.sorted_rows())
        assert "resilience" in report.to_dict()

    def test_exhausted_full_ndp_falls_back_to_host(self, job_env):
        plan = job_env.runner.plan(query(QUERY))
        faults = FaultPlan(commands=CommandFaultModel(fail_first=8))
        baseline = job_env.run(plan, Stack.NATIVE)
        report = job_env.run(plan, Stack.NDP,
                             ctx=ExecutionContext(faults=faults))
        assert report.strategy == "host-only(fallback)"
        assert report.fallback_from == "full-ndp"
        assert (report.result.sorted_rows()
                == baseline.result.sorted_rows())

    def test_full_ndp_retries_and_succeeds(self, job_env):
        plan = job_env.runner.plan(query(QUERY))
        report = job_env.run(
            plan, Stack.NDP,
            ctx=ExecutionContext(
                faults=FaultPlan(commands=CommandFaultModel(fail_first=1))))
        assert report.strategy == "full-ndp"
        assert report.retries == 1
        assert report.faults_injected == {"transient_command": 1}


class TestFlashFaults:
    def test_ecc_retries_add_latency(self):
        plan = FaultPlan(flash=FlashFaultModel(probability=1.0,
                                               ecc_retry_latency=150e-6))
        flash = FlashDevice()
        nbytes = 64 * flash.geometry.page_size
        slow = flash.internal_read_time(nbytes, plan.injector())
        fast = flash.internal_read_time(nbytes)
        assert slow == pytest.approx(fast + 64 * 150e-6)

    def test_ecc_shows_up_in_run_counts(self, job_env):
        plan, split = _plan_and_split(job_env)
        clean = job_env.run(plan, Stack.HYBRID, split_index=split)
        report = job_env.run(
            plan, Stack.HYBRID, split_index=split,
            ctx=ExecutionContext(
                faults=FaultPlan(flash=FlashFaultModel(probability=1.0))))
        assert report.faults_injected.get("flash_ecc_retry", 0) > 0
        assert report.total_time > clean.total_time
        assert (report.result.sorted_rows()
                == clean.result.sorted_rows())


class TestFaultCountsAreDrawn:
    """A report counts the faults its run drew, and building it draws
    none: ``build_report`` prices the summed host counters without an
    injector."""

    FAULTS = FaultPlan(seed=3, flash=FlashFaultModel(probability=0.5))

    def test_split_reports_what_its_injector_drew(self, job_env):
        plan = job_env.runner.plan(query("8c"))
        ctx = ExecutionContext(faults=self.FAULTS)
        kernel = SimContext.fresh()
        prepared = job_env.runner.cooperative.prepare_split(
            plan, 0, ctx, kernel=kernel)
        try:
            prepared.start(0.0)
            kernel.loop.run()
            drawn = prepared.injector.faults_injected()
            first = prepared.build_report(prepared.host_end)
            second = prepared.build_report(prepared.host_end)
        finally:
            prepared.release()
        assert drawn["flash_ecc_retry"] > 0
        assert first.faults_injected == drawn
        assert second.faults_injected == drawn
        assert first.host_breakdown == second.host_breakdown
        # Faults add latency, never work: the host breakdown is the
        # fault-free one, and run_split reports the same draws.
        clean = job_env.runner.cooperative.run_split(plan, 0)
        assert first.host_breakdown == clean.host_breakdown
        serial = job_env.runner.cooperative.run_split(plan, 0, ctx)
        assert serial.faults_injected == drawn
        assert serial.total_time == first.total_time


class TestLinkDramCoreFaults:
    def test_link_windows_scale_transfers(self):
        plan = FaultPlan(link=LinkFaultModel(
            windows=(FaultWindow(1.0, 2.0),), slowdown=4.0))
        injector = plan.injector()
        assert injector.scale_transfer(1.5, 0.01) == 0.04
        assert injector.scale_transfer(2.5, 0.01) == 0.01
        assert injector.faults_injected() == {"link_degraded": 1}

    def test_admission_waits_out_the_pressure_window(self):
        plan = FaultPlan(dram=DramFaultModel(
            windows=(FaultWindow(0.0, 0.002),), shrink_bytes=1 << 40))
        delay = plan.injector().admission_delay(1024, 4096)
        assert delay == 0.002

    def test_admission_times_out_to_overload(self):
        plan = FaultPlan(dram=DramFaultModel(
            windows=(FaultWindow(0.0, 1.0),), shrink_bytes=1 << 40))
        with pytest.raises(DeviceOverloadError):
            plan.injector().admission_delay(1024, 4096)

    def test_admission_wait_appears_in_the_report(self, job_env):
        plan, split = _plan_and_split(job_env)
        report = job_env.run(
            plan, Stack.HYBRID, split_index=split,
            ctx=ExecutionContext(faults=FaultPlan(dram=DramFaultModel(
                windows=(FaultWindow(0.0, 0.001),),
                shrink_bytes=1 << 40))))
        assert report.admission_wait_time == 0.001
        assert report.faults_injected == {"dram_admission_wait": 1}
        labels = [phase.label for phase in report.timeline]
        assert "buffer admission wait" in labels

    def test_core_offline_chains_windows(self):
        plan = FaultPlan(core=CoreFaultModel(
            windows=(FaultWindow(0.0, 0.5), FaultWindow(0.4, 1.0))))
        injector = plan.injector()
        assert injector.core_offline_until(0.1) == 1.0
        assert injector.core_offline_until(2.0) == 2.0

    def test_core_brownout_is_a_device_stall(self, job_env):
        plan, split = _plan_and_split(job_env)
        clean = job_env.run(plan, Stack.HYBRID, split_index=split)
        report = job_env.run(
            plan, Stack.HYBRID, split_index=split,
            ctx=ExecutionContext(faults=FaultPlan(core=CoreFaultModel(
                windows=(FaultWindow(0.0, 0.002),)))))
        assert report.faults_injected.get("core_offline", 0) > 0
        assert report.device_stall_time > clean.device_stall_time


class TestFaultTrace:
    def test_fault_instants_land_on_the_faults_track(self, job_env):
        plan, split = _plan_and_split(job_env)
        tracer = Tracer()
        job_env.run(plan, Stack.HYBRID, split_index=split,
                    ctx=ExecutionContext(
                        tracer=tracer,
                        faults=FaultPlan(
                            commands=CommandFaultModel(fail_first=8))))
        names = [record.name for record in tracer.instants
                 if record.track == FAULTS_TRACK]
        assert names.count("transient-command-failure") == 4
        assert "retries-exhausted" in names
        assert "fallback" in names

    def test_faultless_trace_has_no_faults_track(self, job_env):
        plan, split = _plan_and_split(job_env)
        tracer = Tracer()
        job_env.run(plan, Stack.HYBRID, split_index=split,
                    ctx=ExecutionContext(tracer=tracer))
        assert not [record for record in tracer.instants
                    if record.track == FAULTS_TRACK]
