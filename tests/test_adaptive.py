"""Adaptive mid-query re-planning: feedback loop, EWMA, audits, caches.

Covers the docs/adaptivity.md contract end to end: revised plans return
row-identical results, the EWMA correction is deterministic and its
regret trend is monotone non-increasing, the versioned plan cache
invalidates on writes, and — the null-object guarantee — adaptivity
switched off is byte-invisible.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.adaptive import DEFAULT_SCALE, adaptive_matrix
from repro.context import ExecutionContext
from repro.core import (CardinalityFeedback, CostCorrection,
                        PlanningContext, ReplanPolicy)
from repro.engine import AdaptiveRunner, Stack, StackRunner
from repro.errors import ReproError
from repro.faults import CommandFaultModel, FaultPlan
from repro.sched import WorkloadScheduler
from repro.sim import Tracer
from repro.workloads.job_queries import query
from repro.workloads.sqlgen import RandomSqlGenerator

#: Forces a revision at the first breaker whenever the estimate is off
#: at all — the regime the row-identity property must survive.
AGGRESSIVE = ReplanPolicy(error_threshold=1.01, min_batches=1,
                          max_replans=1)


class TestPlanningContextApi:
    def test_context_must_be_a_planning_context(self, job_env):
        with pytest.raises(ReproError, match="PlanningContext"):
            job_env.planner.decide(query("1a"), context={"device_load": 1})

    def test_decision_carries_typed_estimates(self, job_env):
        decision = job_env.planner.decide(query("1a"))
        winner = decision.estimate_for()
        assert winner.strategy == decision.strategy_name
        assert winner.c_total == min(decision.estimated_costs.values())
        assert decision.estimate_for("host-only").split_index is None
        hybrid = [name for name in decision.estimated_costs
                  if name.startswith("H")]
        for name in hybrid:
            estimate = decision.estimate_for(name)
            assert estimate.intermediate_rows >= 1
            assert estimate.raw_rows >= 1
        with pytest.raises(ReproError, match="no estimate for"):
            decision.estimate_for("H99")

    def test_unbound_decision_cannot_revise(self):
        from repro.core.strategy import ExecutionStrategy, HybridDecision
        decision = HybridDecision(strategy=ExecutionStrategy.HOST_ONLY,
                                  c_total_host=1.0, c_total_device=2.0)
        feedback = CardinalityFeedback(observed_rows=10, estimated_rows=1,
                                       batches_observed=1, batches_total=1)
        with pytest.raises(ReproError, match="cannot be revised"):
            decision.revise(feedback)

    def test_correction_factor_reprices_decisions(self, job_env):
        plan = job_env.runner.plan(query("1a"))
        neutral = job_env.planner.decide(plan)
        skewed = job_env.planner.decide(
            plan, context=PlanningContext(factor_override=50.0))
        assert skewed.correction_factor == 50.0
        # A 50x intermediate-result prior must change at least one
        # candidate's price (the candidate set itself may shift too).
        common = (set(neutral.estimated_costs)
                  & set(skewed.estimated_costs))
        assert common
        assert any(skewed.estimated_costs[name]
                   != neutral.estimated_costs[name] for name in common)


class TestFeedbackMath:
    def test_error_is_symmetric_and_floored(self):
        low = CardinalityFeedback(observed_rows=10, estimated_rows=100,
                                  batches_observed=1, batches_total=4)
        high = CardinalityFeedback(observed_rows=100, estimated_rows=10,
                                   batches_observed=1, batches_total=4)
        assert low.error == pytest.approx(10.0)
        assert high.error == pytest.approx(10.0)
        empty = CardinalityFeedback(observed_rows=0, estimated_rows=0,
                                    batches_observed=1, batches_total=1)
        assert empty.error == 1.0

    def test_ratio_corrects_against_the_raw_estimate(self):
        # The plan ran under a corrected (wrong) estimate of 5000; the
        # raw statistics said 100 and 90 rows actually crossed.  The
        # revision must re-price with 0.9, not compound the stale 50x.
        feedback = CardinalityFeedback(observed_rows=90,
                                       estimated_rows=5000,
                                       batches_observed=2, batches_total=4,
                                       raw_rows=100)
        assert feedback.ratio == pytest.approx(0.9)
        assert feedback.error == pytest.approx(5000 / 90)

    def test_policy_validation(self):
        with pytest.raises(ReproError):
            ReplanPolicy(error_threshold=0.5)
        with pytest.raises(ReproError):
            ReplanPolicy(max_replans=-1)

    def test_correction_store(self):
        store = CostCorrection(alpha=0.5)
        assert store.factor("q") == 1.0
        assert store.observe("q", estimated_rows=100, observed_rows=400) \
            == pytest.approx(2.5)          # halfway from 1.0 to 4.0
        assert store.observe(None, 1, 100) == 1.0   # keyless no-op
        assert len(store) == 1
        store.prime("stale", 1e9)           # clamped to the band
        assert store.factor("stale") == pytest.approx(1024.0)
        assert list(store.snapshot()) == ["q", "stale"]
        with pytest.raises(ReproError):
            CostCorrection(alpha=0.0)


class TestAdaptiveExecution:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(min_value=0, max_value=4),
           index=st.integers(min_value=0, max_value=9))
    def test_replans_preserve_rows(self, job_env, seed, index):
        """Mid-flight re-plans return exactly the host-only rows."""
        sql = RandomSqlGenerator(seed=seed).generate_one(index).sql
        host = job_env.run(sql, Stack.NATIVE)
        runner = AdaptiveRunner(job_env, policy=AGGRESSIVE)
        report = runner.run(sql)
        assert (report.result.sorted_rows()
                == host.result.sorted_rows())
        assert report.adaptivity["enabled"] is True

    def test_ewma_runs_are_deterministic(self, job_env):
        def run_series():
            runner = AdaptiveRunner(job_env, policy=AGGRESSIVE)
            audits = [runner.run(query(name)).adaptivity
                      for name in ("1a", "8c", "1a", "8c")]
            return audits, runner.correction.snapshot()

        first_audits, first_factors = run_series()
        second_audits, second_factors = run_series()
        assert (json.dumps(first_audits, sort_keys=True)
                == json.dumps(second_audits, sort_keys=True))
        assert first_factors == second_factors
        assert first_factors            # something was actually learned

    def test_retries_exhausted_degrades_like_the_stack_runner(self, job_env):
        """A command storm under the adaptive driver takes the one host
        fallback: same label, audit and trace marker as StackRunner."""
        sql = query("8c")
        storm = FaultPlan(seed=0, commands=CommandFaultModel(fail_first=8))
        host = job_env.run(sql, Stack.NATIVE)
        tracer = Tracer()
        report = AdaptiveRunner(job_env).run(
            sql, ctx=ExecutionContext(tracer=tracer, faults=storm))
        assert report.result.sorted_rows() == host.result.sorted_rows()
        assert report.strategy == "host-only(fallback)"
        assert report.fallback_from == "H0"
        assert report.retries == storm.retry.max_retries + 1
        assert report.faults_injected
        assert report.wasted_device_time > 0.0
        assert report.total_time == pytest.approx(
            host.total_time + report.wasted_device_time)
        fallbacks = [instant for instant in tracer.instants
                     if instant.track == "faults"
                     and instant.name == "fallback"]
        assert len(fallbacks) == 1
        assert fallbacks[0].time == report.wasted_device_time
        assert report.adaptivity["enabled"] is True

    def test_regret_is_monotone_and_converges(self, job_env):
        summary = adaptive_matrix(job_env, query_names=["1a", "2a"],
                                  rounds=8, skew=50.0)
        series = [row["adaptive_regret"] for row in summary["rounds"]]
        for earlier, later in zip(series, series[1:]):
            assert later <= earlier + 1e-12
        totals = summary["totals"]
        assert totals["regret_converged"]
        assert totals["adaptive_beats_static"]
        # The stale 50x prior washes out toward 1.0.
        final = summary["rounds"][-1]["per_query"]
        for cell in final.values():
            assert cell["correction_factor"] < 5.0

    def test_registered_defaults_beat_static_and_converge(self, job_env):
        # The regret gate of ``python -m repro experiment adaptive``: its
        # default mix, rounds and skew at the scale they were calibrated
        # at, which is ``job_env``'s.
        assert job_env.spec.scale == DEFAULT_SCALE
        totals = adaptive_matrix(job_env)["totals"]
        assert totals["adaptive_beats_static"]
        assert totals["regret_converged"]

    def test_noop_breaker_hook_is_byte_invisible(self, job_env):
        plan = job_env.runner.plan(query("1a"))
        base = job_env.runner.cooperative.run_split(plan, 0)
        seen = []
        hooked = job_env.runner.cooperative.run_split(
            plan, 0, breaker_hook=lambda split, i: seen.append(i))
        assert seen == list(range(len(seen)))   # fired at every breaker
        assert (json.dumps(base.to_dict(include_timeline=True),
                           sort_keys=True)
                == json.dumps(hooked.to_dict(include_timeline=True),
                              sort_keys=True))


class TestAdaptiveScheduler:
    def _run_workload(self, job_env):
        correction = CostCorrection()
        correction.prime(query("1a"), 50.0)
        sched = WorkloadScheduler(job_env, correction=correction,
                                  replan=ReplanPolicy())
        for i in range(4):
            sched.submit("1a", at=0.001 * i)
        return sched.run()

    def test_scheduler_replans_and_audits(self, job_env):
        result = self._run_workload(job_env)
        host = job_env.run(query("1a"), Stack.NATIVE)
        assert len(result.completed()) == 4
        for job in result.jobs:
            assert (job.report.result.sorted_rows()
                    == host.result.sorted_rows()), job.label
            assert job.report.adaptivity["enabled"] is True
        payload = result.to_dict()
        assert payload["adaptivity"]["replans"] >= 1
        assert payload["adaptivity"]["observations"] >= 1
        assert payload["adaptivity"]["correction"][query("1a")] < 50.0
        assert payload["plan_cache"]["hits"] >= 3
        assert job_env.device.reserved_bytes == 0

    def test_adaptive_workload_is_deterministic(self, job_env):
        first = self._run_workload(job_env).to_dict(include_reports=True)
        second = self._run_workload(job_env).to_dict(include_reports=True)
        first.pop("plan_cache")
        second.pop("plan_cache")
        assert (json.dumps(first, sort_keys=True)
                == json.dumps(second, sort_keys=True))


class TestPlanCacheVersioning:
    def test_writes_invalidate_cached_plans(self, mini_catalog, kv_db,
                                            device, mini_join_sql):
        runner = StackRunner(mini_catalog, kv_db, device)
        first = runner.plan(mini_join_sql)
        assert runner.plan(mini_join_sql) is first
        assert runner.plan_cache_stats() == {
            "hits": 1, "misses": 1, "invalidations": 0, "entries": 1}
        version = mini_catalog.statistics_version()
        mini_catalog.table("title").insert(
            {"id": 9000, "title": "Fresh Movie",
             "production_year": 1999, "kind_id": 1})
        assert mini_catalog.statistics_version() == version + 1
        rebuilt = runner.plan(mini_join_sql)
        assert rebuilt is not first
        stats = runner.plan_cache_stats()
        assert stats["invalidations"] == 1
        assert stats["entries"] == 1
        # Stable statistics serve the rebuilt plan again.
        assert runner.plan(mini_join_sql) is rebuilt

    def test_noop_mutations_do_not_invalidate(self, mini_catalog, kv_db,
                                              device, mini_join_sql):
        runner = StackRunner(mini_catalog, kv_db, device)
        first = runner.plan(mini_join_sql)
        version = mini_catalog.statistics_version()
        # Deleting a missing key applies nothing.
        assert mini_catalog.table("title").delete(10**9) is False
        assert mini_catalog.statistics_version() == version
        assert runner.plan(mini_join_sql) is first
