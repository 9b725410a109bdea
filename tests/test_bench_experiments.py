"""Tests for the experiment harness and reporting."""

import pytest

from repro.bench.experiments import (classify_matrix, exp1_table3,
                                     exp3_decisions_fig13,
                                     exp6_split_sweep_fig16, exp6_table4,
                                     force_bnlj)
from repro.bench.reporting import format_table, ms, render_matrix_summary
from repro.engine.stacks import Stack
from repro.errors import DeviceOverloadError
from repro.query.physical import AccessPath, JoinAlgorithm
from repro.workloads.job_queries import LISTING2_LIMITED_PROJECTION


class TestClassifyMatrix:
    def test_green_yellow_red(self):
        matrix = {
            "a": {"host-only": 1.0, "H0": 0.5, "full-ndp": 2.0},
            "b": {"host-only": 1.0, "H0": 1.01, "full-ndp": 3.0},
            "c": {"host-only": 1.0, "H0": 1.5, "full-ndp": 1.4},
        }
        summary = classify_matrix(matrix)
        assert summary["per_query"] == {"a": "green", "b": "yellow",
                                        "c": "red"}
        assert summary["green_yellow_pct"] == pytest.approx(200 / 3)
        assert summary["max_speedup"] == pytest.approx(2.0)

    def test_best_strategy_attribution(self):
        matrix = {
            "a": {"host-only": 1.0, "H0": 0.4, "H1": 0.6,
                  "full-ndp": 0.9},
            "b": {"host-only": 1.0, "H0": 0.8, "full-ndp": 0.3},
        }
        summary = classify_matrix(matrix)
        assert summary["h0_best_pct"] == pytest.approx(50.0)
        assert summary["full_ndp_best_pct"] == pytest.approx(50.0)

    def test_infeasible_strategies_ignored(self):
        matrix = {"a": {"host-only": 1.0, "H0": None, "full-ndp": None}}
        summary = classify_matrix(matrix)
        assert summary["per_query"]["a"] == "red"

    def test_empty_matrix(self):
        summary = classify_matrix({})
        assert summary["total"] == 0
        assert summary["green_pct"] == 0.0


class TestForceBnlj:
    def test_rewrites_joins(self, mini_catalog):
        from repro.query.optimizer import build_plan
        from tests.conftest import MINI_JOIN_SQL
        plan = force_bnlj(build_plan(MINI_JOIN_SQL, mini_catalog))
        for entry in plan.entries[1:]:
            assert entry.join_algorithm is JoinAlgorithm.BNLJ
            assert entry.index_column is None
            assert entry.access_path is AccessPath.FULL_SCAN

    def test_leaves_the_cached_plan_alone(self, job_env):
        sql = LISTING2_LIMITED_PROJECTION
        forced = force_bnlj(job_env.runner.plan(sql))
        plan = job_env.runner.plan(sql)
        assert forced is not plan
        assert [entry.join_algorithm for entry in plan.entries[1:]] == [
            JoinAlgorithm.BNLJI] * plan.join_count

    def test_forced_plan_still_correct(self, mini_catalog, kv_db, flash):
        from repro.engine.stacks import Stack, StackRunner
        from repro.query.optimizer import build_plan
        from repro.storage.topology import Topology
        from tests.conftest import MINI_JOIN_SQL
        runner = StackRunner(mini_catalog, kv_db,
                             Topology.single(flash=flash).device,
                             buffer_scale=0.001)
        normal = runner.run(build_plan(MINI_JOIN_SQL, mini_catalog),
                            Stack.NATIVE)
        forced = runner.run(force_bnlj(build_plan(MINI_JOIN_SQL,
                                                  mini_catalog)),
                            Stack.NATIVE)
        assert forced.result.sorted_rows() == normal.result.sorted_rows()
        # Index-less execution must do more work.
        assert (forced.host_counters.records_evaluated
                >= normal.host_counters.records_evaluated)


class TestExperimentsOnJobEnv:
    def test_table4_shares(self, job_env):
        result = exp6_table4(job_env, "8d", split_index=2)
        assert abs(sum(result["device_operations"].values()) - 100) < 1e-6
        assert result["host_stages"]["ndp_setup"] < 10

    def test_decisions_classifier(self, job_env):
        matrix = {
            "1a": {"host-only": 1.0, "H0": 0.9, "H1": 1.1,
                   "full-ndp": 2.0},
        }
        result = exp3_decisions_fig13(job_env, matrix)
        assert result["total"] == 1
        assert result["per_query"]["1a"] in ("best", "acceptable", "miss")


def _failing_offloads(monkeypatch, env, error):
    """Make every NDP and hybrid run of ``env``'s runner raise ``error``."""
    real = env.runner.run

    def run(plan, stack, split_index=None, ctx=None):
        if stack in (Stack.NDP, Stack.HYBRID):
            raise error
        return real(plan, stack, split_index=split_index, ctx=ctx)
    monkeypatch.setattr(env.runner, "run", run)


class TestInfeasibleStrategies:
    """Only a ``ReproError`` makes a strategy infeasible; a programming
    error propagates instead of becoming an empty cell."""

    def test_repro_error_is_recorded_as_infeasible(self, job_env,
                                                   monkeypatch):
        _failing_offloads(monkeypatch, job_env,
                          DeviceOverloadError("pipeline does not fit"))
        rows = exp1_table3(job_env)["rows"]
        assert rows and all(row["error"] == "pipeline does not fit"
                            for row in rows)
        times = exp6_split_sweep_fig16(job_env, "1a")["times"]
        assert times.pop("block-only") > 0
        assert set(times.values()) == {None}

    @pytest.mark.parametrize("experiment", [
        exp1_table3, lambda env: exp6_split_sweep_fig16(env, "1a")],
        ids=["tab3", "fig16"])
    def test_programming_error_propagates(self, job_env, monkeypatch,
                                          experiment):
        _failing_offloads(monkeypatch, job_env, TypeError("engine bug"))
        with pytest.raises(TypeError, match="engine bug"):
            experiment(job_env)


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "long-header"],
                            [["xxx", 1], ["y", 22]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "long-header" in lines[1]
        assert len(lines) == 5

    def test_ms(self):
        assert ms(0.001234) == "1.234"

    def test_matrix_summary_renders(self):
        summary = classify_matrix(
            {"a": {"host-only": 1.0, "H0": 0.5}})
        text = render_matrix_summary(summary)
        assert "green" in text
        assert "4.2x" in text

    def test_family_grid(self):
        from repro.bench.reporting import render_family_grid
        grid = render_family_grid(
            {"1a": "green", "1b": "red", "8c": "yellow"},
            legend="g/y/r")
        lines = grid.splitlines()
        assert "1" in lines[0] and "8" in lines[0]
        assert lines[1].strip().startswith("a")
        assert "g" in lines[1]
        assert "y" in lines[3] or "y" in grid
        assert "legend" in grid

    def test_family_grid_empty(self):
        from repro.bench.reporting import render_family_grid
        assert render_family_grid({}) == "(empty grid)"
