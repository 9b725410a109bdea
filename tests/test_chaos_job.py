"""Chaos JOB sweep (repro.bench.chaos).

The robustness contract, end to end over real JOB queries: every chaos
scenario must return exactly the fault-free host baseline's rows within
a bounded slowdown, same-seed runs must be byte-for-byte reproducible,
and the command storm must degrade through the mid-query host fallback.

The smoke grid (two queries x all scenarios) runs in tier 1; the
representative differential set runs under ``--runslow``.
"""

import json

import pytest

from repro.bench.chaos import (ROBUSTNESS_SCENARIOS, SCENARIOS,
                               STRAGGLER_LIMIT, chaos_matrix,
                               default_split, generated_queries, run_chaos,
                               scenario_plan)
from repro.errors import ReproError

SMOKE_QUERIES = ["1a", "8c"]
REPRESENTATIVE = ["1a", "2d", "3b", "6b", "8c", "11a", "14a", "17b",
                  "22a", "26a", "29a", "32a", "33a"]


class TestScenarioCatalogue:
    def test_every_scenario_has_a_plan(self):
        for name in SCENARIOS:
            assert scenario_plan(name).enabled, name

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ReproError):
            scenario_plan("meteor-strike")

    def test_plans_are_seeded(self):
        assert scenario_plan("flash-ecc", seed=3).seed == 3

    def test_matrix_rejects_unknown_scenario_before_running(
            self, job_env, monkeypatch):
        def must_not_run(*_args, **_kwargs):
            raise AssertionError("a cell ran before validation")
        monkeypatch.setattr("repro.bench.chaos.run_chaos", must_not_run)
        with pytest.raises(ReproError) as error:
            chaos_matrix(job_env, ["1a"],
                         scenarios=["flash-ecc", "meteor-strike"])
        # Both catalogues are valid --scenario values, so both are listed.
        assert "meteor-strike" in str(error.value)
        assert "perfect-storm" in str(error.value)
        assert "deadline_shedding" in str(error.value)


@pytest.mark.parametrize("query_name", SMOKE_QUERIES)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_chaos_smoke(job_env, query_name, scenario):
    summary = run_chaos(job_env, query_name, scenario, seed=0)
    assert summary["rows_match"], (
        f"{query_name}/{scenario} returned wrong rows under faults")
    assert summary["bounded"], (
        f"{query_name}/{scenario} blew the slowdown bound: "
        f"{summary['faulted_time']:.4f}s vs host "
        f"{summary['baseline_time']:.4f}s")
    assert summary["faults_injected"], (
        f"{query_name}/{scenario} injected nothing — scenario is inert")


def test_command_storm_degrades_via_host_fallback(job_env):
    summary = run_chaos(job_env, "8c", "command-storm", seed=0)
    assert summary["strategy"] == "host-only(fallback)"
    assert summary["fallback_from"] == f"H{summary['split_index']}"
    assert summary["retries"] == 4
    assert summary["wasted_device_time"] > 0.0
    assert summary["rows_match"]


def test_transient_commands_recover_without_fallback(job_env):
    summary = run_chaos(job_env, "8c", "transient-commands", seed=0)
    assert summary["fallback_from"] is None
    assert summary["strategy"] == f"H{summary['split_index']}"
    assert summary["retries"] == 2
    assert summary["rows_match"]


def test_same_seed_matrix_is_byte_identical(job_env):
    kwargs = dict(scenarios=["transient-commands", "perfect-storm"], seed=5)
    first = chaos_matrix(job_env, ["1a"], **kwargs)
    second = chaos_matrix(job_env, ["1a"], **kwargs)
    assert json.dumps(first, sort_keys=True) == json.dumps(second,
                                                           sort_keys=True)


def test_matrix_writes_fault_annotated_traces(job_env, tmp_path):
    trace_dir = tmp_path / "traces"
    chaos_matrix(job_env, ["1a"], scenarios=["command-storm"],
                 trace_dir=str(trace_dir))
    trace = json.loads((trace_dir / "1a-command-storm.json").read_text())
    names = {event.get("name") for event in trace["traceEvents"]}
    assert "retries-exhausted" in names
    assert "fallback" in names


def test_default_split_is_offloadable(job_env):
    from repro.workloads.job_queries import query
    plan = job_env.runner.plan(query("8c"))
    split = default_split(job_env.runner, plan)
    assert 0 <= split < plan.table_count
    assert job_env.runner.ndp_engine.can_offload(plan.prefix(split))


@pytest.mark.slow
@pytest.mark.parametrize("query_name", REPRESENTATIVE)
def test_chaos_representative(job_env, query_name):
    for scenario in sorted(SCENARIOS):
        summary = run_chaos(job_env, query_name, scenario, seed=0)
        assert summary["ok"], (
            f"{query_name}/{scenario}: rows_match={summary['rows_match']} "
            f"bounded={summary['bounded']}")


class TestRobustnessScenarios:
    """Cluster-level chaos: stragglers, cascading failures, deadlines."""

    def test_catalogue_names(self):
        assert set(ROBUSTNESS_SCENARIOS) == {
            "straggler_device", "double_device_failure",
            "deadline_shedding"}
        assert not set(ROBUSTNESS_SCENARIOS) & set(SCENARIOS)

    def test_straggler_speculation_rescues_makespan(self, job_env):
        summary = run_chaos(job_env, "1a", "straggler_device", seed=0)
        assert summary["ok"], summary
        assert summary["rows_match"]
        assert summary["speculation"]["clones"] >= 1
        assert summary["faulted_time"] \
            <= STRAGGLER_LIMIT * summary["reference_time"]

    def test_double_failure_degrades_to_host(self, job_env):
        summary = run_chaos(job_env, "1a", "double_device_failure",
                            seed=0)
        assert summary["ok"], summary
        assert summary["failed_devices"] == [0, 1]
        assert set(summary["placements"]) <= {"host-fallback", "empty"}

    def test_deadline_shedding_keeps_exact_accounting(self, job_env):
        summary = run_chaos(job_env, "1a", "deadline_shedding", seed=0)
        assert summary["ok"], summary
        assert summary["completed_jobs"] >= 1
        assert summary["shed_jobs"] >= 1
        assert summary["completed_jobs"] + summary["shed_jobs"] == 6
        assert summary["leaked_reserved_bytes"] == 0

    def test_robustness_summaries_are_byte_identical(self, job_env):
        def run_once():
            return json.dumps(
                run_chaos(job_env, "1a", "double_device_failure", seed=0),
                sort_keys=True)

        assert run_once() == run_once()


class TestGeneratedWorkloads:
    def test_generated_queries_deterministic(self):
        first = generated_queries(3, seed=11)
        again = generated_queries(3, seed=11)
        other = generated_queries(3, seed=12)
        assert list(first) == ["gen0", "gen1", "gen2"]
        assert first == again
        assert first != other
        assert all(sql.lstrip().upper().startswith("SELECT")
                   for sql in first.values())

    def test_generated_query_runs_through_chaos(self, job_env):
        queries = generated_queries(2, seed=0)
        summary = run_chaos(job_env, "gen0", "transient-commands",
                            seed=0, queries=queries)
        assert summary["query"] == "gen0"
        assert summary["ok"], summary

    def test_matrix_accepts_generated_mapping(self, job_env):
        queries = generated_queries(1, seed=0)
        matrix = chaos_matrix(job_env, ["gen0"],
                              scenarios=["transient-commands"],
                              queries=queries)
        assert matrix["gen0"]["transient-commands"]["ok"]
