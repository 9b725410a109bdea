"""Plan golden: every JOB plan and offloading decision, pinned exactly.

The fixture holds, per JOB query on the session environment (scale
0.0004, seed 7), each plan entry's estimates, access path, indexed
column, join algorithm and join edges, and the planner's decision with
the reprs of its costs, so a change to the estimator, join ordering,
physical choice or cost model that moves any float by one ulp, or picks
another index, fails here.  Regenerate only for an intended change to
an estimate or a physical choice, and say which in the commit message:

    PYTHONPATH=src python -c "
    from repro.workloads.loader import build_environment
    from tests.test_plan_golden import GOLDEN, dump_records, plan_records
    env = build_environment(scale=0.0004, seed=7)
    GOLDEN.write_text(dump_records(plan_records(env)))"
"""

import json
from pathlib import Path

from repro.query.optimizer import build_plan
from repro.workloads.job_queries import all_queries

GOLDEN = Path(__file__).parent / "golden" / "plans_job_v1.json"


def _name(member):
    return None if member is None else member.name


def plan_record(env, sql):
    """The estimates and decision of one query, as JSON-able reprs."""
    plan = build_plan(sql, env.catalog)
    decision = env.planner.decide(plan)
    return {
        "entries": [{
            "alias": entry.alias,
            "estimated_selectivity": repr(entry.estimated_selectivity),
            "estimated_rows": entry.estimated_rows,
            "estimated_output_rows": entry.estimated_output_rows,
            "access_path": _name(entry.access_path),
            "index_column": entry.index_column,
            "join_algorithm": _name(entry.join_algorithm),
            "join_edges": [str(edge) for edge in entry.join_edges],
        } for entry in plan.entries],
        "strategy": decision.strategy_name,
        "c_total_host": repr(decision.c_total_host),
        "c_total_device": repr(decision.c_total_device),
        "estimates": {name: repr(estimate)
                      for name, estimate in decision.estimates.items()},
    }


def plan_records(env):
    """:func:`plan_record` of every JOB query, by name."""
    return {name: plan_record(env, sql)
            for name, sql in all_queries().items()}


def dump_records(records):
    """The fixture text: one sorted-key JSON line per query."""
    lines = [f"{json.dumps(name)}: {json.dumps(records[name], sort_keys=True)}"
             for name in sorted(records)]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_job_plans_match_golden(job_env):
    golden = json.loads(GOLDEN.read_text())
    records = json.loads(json.dumps(plan_records(job_env)))
    assert sorted(records) == sorted(golden)
    for name, record in records.items():
        assert record == golden[name], name
