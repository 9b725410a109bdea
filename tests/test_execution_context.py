"""Tests for the ExecutionContext API."""

import dataclasses

import pytest

from repro.context import NULL_CONTEXT, ExecutionContext
from repro.engine.stacks import Stack
from repro.errors import ReproError
from repro.faults import (NULL_INJECTOR, CommandFaultModel, FaultPlan,
                          RetryPolicy)
from repro.sim import Tracer
from repro.workloads.job_queries import query

QUERY = "1a"


class TestCoerce:
    def test_no_arguments_is_null_context(self):
        assert ExecutionContext.coerce() is NULL_CONTEXT
        assert ExecutionContext.coerce(None) is NULL_CONTEXT

    def test_legacy_kwargs_no_longer_exist(self):
        # coerce() lost its tracer=/faults= shim with the migration.
        with pytest.raises(TypeError):
            ExecutionContext.coerce(tracer=Tracer())
        with pytest.raises(TypeError):
            ExecutionContext.coerce(faults=FaultPlan(seed=1))

    def test_context_passes_through(self):
        ctx = ExecutionContext(tracer=Tracer())
        assert ExecutionContext.coerce(ctx) is ctx

    def test_wrong_type_rejected(self):
        with pytest.raises(ReproError):
            ExecutionContext.coerce(Tracer())   # a tracer is not a ctx


class TestContext:
    def test_frozen(self):
        ctx = ExecutionContext()
        with pytest.raises(dataclasses.FrozenInstanceError):
            ctx.tracer = Tracer()

    def test_null_context_collaborators(self):
        assert not NULL_CONTEXT.sim_tracer().enabled
        assert NULL_CONTEXT.injector() is NULL_INJECTOR

    def test_fault_plan_yields_fresh_injector_per_call(self):
        ctx = ExecutionContext(faults=FaultPlan(
            seed=3, commands=CommandFaultModel(probability=0.5)))
        first = ctx.injector()
        second = ctx.injector()
        assert first is not second
        assert first.enabled and second.enabled

    def test_retry_policy_overrides_plan_policy(self):
        policy = RetryPolicy(max_retries=9)
        ctx = ExecutionContext(
            faults=FaultPlan(seed=3,
                             commands=CommandFaultModel(probability=0.5)),
            retry_policy=policy)
        assert ctx.injector().retry.max_retries == 9


class TestRunPaths:
    """ctx= is the only spelling."""

    def test_unknown_kwarg_is_a_type_error(self, job_env):
        plan = job_env.runner.plan(query(QUERY))
        with pytest.raises(TypeError):
            job_env.run(plan, Stack.HYBRID, split_index=0, bogus=1)
        with pytest.raises(TypeError):
            job_env.run(plan, Stack.HYBRID, split_index=0, tracer=Tracer())

    def test_run_all_splits_ctx_factory(self, job_env):
        tracers = {}

        def ctx_factory(name):
            tracers[name] = Tracer()
            return ExecutionContext(tracer=tracers[name])

        reports = job_env.runner.run_all_splits(query(QUERY),
                                                ctx_factory=ctx_factory)
        assert "host-only" in reports and "full-ndp" in reports
        traced = [name for name, tracer in tracers.items()
                  if tracer.metrics()["spans"] > 0
                  and not isinstance(reports[name], Exception)]
        assert traced   # at least the feasible strategies traced spans

    def test_plan_cache_returns_same_object(self, job_env):
        sql = query(QUERY)
        assert job_env.runner.plan(sql) is job_env.runner.plan(sql)


class TestDeadline:
    """``ctx.deadline`` on the single-device hybrid path."""

    def test_run_split_raises_with_partial_audit(self, job_env):
        from repro.errors import DeadlineExceededError

        plan = job_env.runner.plan(query(QUERY))
        split = plan.table_count - 1
        reference = job_env.run(plan, Stack.HYBRID, split_index=split)
        deadline = 0.4 * reference.total_time
        reserved_before = job_env.device.reserved_bytes

        with pytest.raises(DeadlineExceededError) as excinfo:
            job_env.run(plan, Stack.HYBRID, split_index=split,
                        ctx=ExecutionContext(deadline=deadline))
        error = excinfo.value
        assert error.deadline == deadline
        assert error.partial["strategy"] == f"H{split}"
        assert 0 <= error.partial["batches_consumed"] \
            <= error.partial["batches_total"]
        # Cancellation released the pipeline reservation.
        assert job_env.device.reserved_bytes == reserved_before

    def test_traced_full_ndp_deadline_raises_the_typed_error(self, job_env):
        # Used to die with "span id 1 is not open": the root span was
        # closed twice on the traced deadline path.
        from repro.errors import DeadlineExceededError

        plan = job_env.runner.plan(query(QUERY))
        reference = job_env.run(plan, Stack.NDP)
        tracer = Tracer()
        with pytest.raises(DeadlineExceededError) as excinfo:
            job_env.run(plan, Stack.NDP, ctx=ExecutionContext(
                tracer=tracer, deadline=0.5 * reference.total_time))
        assert (excinfo.value.partial["would_have_taken"]
                == reference.total_time)
        tracer.dumps()      # every span closed: the trace exports

    def test_generous_deadline_is_identical_to_none(self, job_env):
        plan = job_env.runner.plan(query(QUERY))
        bounded = job_env.run(plan, Stack.HYBRID, split_index=1,
                              ctx=ExecutionContext(deadline=3600.0))
        unbounded = job_env.run(plan, Stack.HYBRID, split_index=1)
        assert bounded.total_time == unbounded.total_time
        assert (bounded.result.sorted_rows()
                == unbounded.result.sorted_rows())

    def test_negative_deadline_rejected(self):
        with pytest.raises(ReproError):
            ExecutionContext(deadline=-1.0)

    def test_nan_deadline_rejected(self):
        # A NaN passed `deadline <= 0` and a split then raised
        # "deadline nans expired" mid-run.
        with pytest.raises(ReproError, match="positive"):
            ExecutionContext(deadline=float("nan"))
