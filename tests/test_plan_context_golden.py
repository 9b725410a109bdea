"""Decision golden under planning contexts: load, correction, and both.

``tests/golden/plans_job_v1.json`` pins every JOB decision under the
default context only.  This fixture pins, per JOB query on the session
environment (scale 0.0004, seed 7), ``decide()`` under a loaded device
(:class:`~repro.core.cost_model.DeviceLoad`), under an EWMA correction
factor other than 1, and under both at once: the strategy, split index
and reason, and the reprs of ``c_total_*``, ``c_target``,
``cumulative_costs`` and every ``estimates`` entry.  A change to the
cost model, the splitter or the planner that moves any of them by one
ulp under a non-default context fails here.  Regenerate only for an
intended change to the cost model, and say which in the commit message:

    PYTHONPATH=src python -c "
    from repro.workloads.loader import build_environment
    from tests.test_plan_context_golden import GOLDEN, context_records
    from tests.test_plan_golden import dump_records
    env = build_environment(scale=0.0004, seed=7)
    GOLDEN.write_text(dump_records(context_records(env)))"
"""

import json
from pathlib import Path

from repro.core.cost_model import DeviceLoad
from repro.core.planning import PlanningContext
from repro.query.optimizer import build_plan
from repro.workloads.job_queries import all_queries

GOLDEN = Path(__file__).parent / "golden" / "plans_job_context_v1.json"

_LOAD = DeviceLoad(core_utilization=0.55, link_utilization=0.3,
                   reserved_fraction=0.25, inflight=2)

#: name -> the context every JOB query is decided under.
CONTEXTS = {
    "loaded": PlanningContext(device_load=_LOAD),
    "corrected": PlanningContext(factor_override=2.5),
    "loaded_corrected": PlanningContext(device_load=_LOAD,
                                        factor_override=0.4),
}


def decision_record(decision):
    """One decision's choice and costs, as JSON-able reprs."""
    return {
        "strategy": decision.strategy_name,
        "split_index": decision.split_index,
        "reason": decision.reason,
        "c_total_host": repr(decision.c_total_host),
        "c_total_device": repr(decision.c_total_device),
        "c_target": repr(decision.c_target),
        "cumulative_costs": [repr(cost)
                             for cost in decision.cumulative_costs],
        "estimates": {name: repr(estimate)
                      for name, estimate in decision.estimates.items()},
    }


def context_records(env):
    """Every JOB query's decision under each of :data:`CONTEXTS`."""
    records = {}
    for name, sql in all_queries().items():
        plan = build_plan(sql, env.catalog)
        records[name] = {
            context_name: decision_record(
                env.planner.decide(plan, context=context))
            for context_name, context in CONTEXTS.items()}
    return records


def test_job_decisions_under_contexts_match_golden(job_env):
    golden = json.loads(GOLDEN.read_text())
    records = json.loads(json.dumps(context_records(job_env)))
    assert sorted(records) == sorted(golden)
    for name, record in records.items():
        assert record == golden[name], name


def test_contexts_move_decisions():
    """The fixture is not the default context three times over."""
    golden = json.loads(GOLDEN.read_text())
    default = json.loads(
        (GOLDEN.parent / "plans_job_v1.json").read_text())
    for context_name in CONTEXTS:
        moved = sum(
            golden[name][context_name]["c_total_device"]
            != default[name]["c_total_device"] for name in golden)
        assert moved == len(golden), context_name
    strategies = {record[context_name]["strategy"]
                  for record in golden.values() for context_name in CONTEXTS}
    assert {"host-only"} < strategies
