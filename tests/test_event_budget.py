"""The event loop's cap is its own outcome, not an infeasible strategy.

A simulation that fires more events than ``repro.sim.events.MAX_EVENTS``
raises :class:`EventBudgetExceeded`.  The sweeps that classify
strategies — the survey matrix and Fig 16 (``strategy_times``), the
differential fuzzer and the chaos matrix — record it as ``budget``,
apart from the device limits they call infeasible.  Under the default
cap nothing changes: no payload gains a ``budget`` entry.
"""

import pytest

from repro.bench.chaos import run_chaos
from repro.bench.experiments import classify_matrix, exp6_split_sweep_fig16
from repro.bench.fuzz import FuzzHarness
from repro.bench.parallel import BUDGET, strategy_times
from repro.errors import EventBudgetExceeded, ReproError
from repro.sim import events
from repro.workloads.job_queries import query

#: 8c's deep splits push hundreds of device batches, several events each.
_CAP = 200


@pytest.fixture
def small_cap(monkeypatch):
    monkeypatch.setattr(events, "MAX_EVENTS", _CAP)


def test_sweeps_record_budget_apart_from_infeasible(job_env, small_cap):
    reports = job_env.runner.run_all_splits(query("8c"))
    over = sorted(name for name, report in reports.items()
                  if isinstance(report, EventBudgetExceeded))
    assert "H5" in over
    times = strategy_times(job_env, "8c")
    assert sorted(name for name, value in times.items()
                  if value == BUDGET) == over
    assert all(isinstance(times[name], float) for name in times
               if name not in over and not isinstance(reports[name],
                                                      ReproError))
    fig16 = exp6_split_sweep_fig16(job_env, "8c")["times"]
    assert sorted(name for name, value in fig16.items()
                  if value == BUDGET) == over
    summary = classify_matrix({"8c": times})
    assert summary["total"] == 1


def test_fuzz_counts_budget_overruns_apart(job_env, monkeypatch):
    def sweep():
        return FuzzHarness(job_env, seed=3, modes=("split",)).run(6)

    under = sweep().to_dict()
    assert "budget" not in under
    monkeypatch.setattr(events, "MAX_EVENTS", 5)
    over = sweep()
    assert over.budget > 0 and over.ok
    payload = over.to_dict()
    assert payload["budget"] == over.budget
    assert payload["checks"] + payload["infeasible"] + over.budget \
        == under["checks"] + under["infeasible"]


def test_chaos_cell_reports_budget(job_env, monkeypatch):
    under = run_chaos(job_env, "8c", "flash-ecc")
    assert "budget" not in under and under["ok"]
    monkeypatch.setattr(events, "MAX_EVENTS", 5)
    cell = run_chaos(job_env, "8c", "flash-ecc")
    assert cell["strategy"] == "budget" and cell["budget"]
    assert "infeasible" not in cell
