"""Adaptive re-planning regret bench (docs/adaptivity.md).

Measures how fast the mid-query re-planning loop recovers from
*misestimated* statistics.  Each query's correction store is primed with
a wrong prior (``skew``× the true intermediate-result cardinality — the
stale-statistics regime after, say, a bulk delete the planner has not
re-sampled), then the same workload runs for ``rounds`` rounds under
three policies:

* **oracle** — the fastest measured strategy per query (host-native,
  every feasible Hk, full NDP), a constant lower bound;
* **static** — the planner's one-shot decision under the skewed
  estimate, re-executed unchanged every round (no feedback);
* **adaptive** — :class:`~repro.engine.adaptive.AdaptiveRunner` from
  the same skewed prior: pipeline-breaker feedback revises the plan
  mid-flight (the cancelled attempt's time is charged), and the EWMA
  correction washes the prior out across rounds.

Per-round *regret* is the summed time above oracle.  The summary's
``totals`` report the adaptive loop's two promises — total adaptive
regret below static, and last-round regret no worse than first-round
(the loop must not oscillate); ``tests/test_adaptive.py`` asserts both
at :data:`DEFAULT_SCALE`.  The whole run is a deterministic pure
simulation, so two invocations produce byte-identical JSON
(``python -m repro experiment adaptive``).
"""

from repro.core import (CostCorrection, PlanningContext, ReplanPolicy)
from repro.engine import Stack
from repro.engine.adaptive import AdaptiveRunner
from repro.errors import ReproError
from repro.workloads.job_queries import query as job_query

#: Queries whose skewed-prior placement measurably diverges from the
#: oracle at the bench scale — the regime adaptivity exists for.
DEFAULT_QUERIES = ["1a", "2a", "11a", "21b"]
DEFAULT_SKEW = 50.0
DEFAULT_ROUNDS = 16
#: The dataset scale the default workload was calibrated at: placement
#: gaps are cardinality-driven, so which strategy wins shifts with scale.
DEFAULT_SCALE = 0.0004


def strategy_sweep(env, plan):
    """Measured ``{strategy: total_time}`` over every feasible strategy."""
    times = {"host-only": env.runner.run(plan, Stack.NATIVE).total_time}
    for k in range(plan.table_count):
        try:
            report = env.runner.run(plan, Stack.HYBRID, split_index=k)
        except ReproError:
            continue
        times[f"H{k}"] = report.total_time
    try:
        times["full-ndp"] = env.runner.run(plan, Stack.NDP).total_time
    except ReproError:
        pass
    return times


def adaptive_matrix(env, query_names=None, rounds=DEFAULT_ROUNDS,
                    skew=DEFAULT_SKEW):
    """Run the regret experiment; returns a JSON-ready summary.

    The loop runs under the default :class:`ReplanPolicy` and
    :class:`CostCorrection`, whose settings the summary's ``config``
    echoes.
    """
    names = list(query_names or DEFAULT_QUERIES)
    if rounds < 2:
        raise ReproError("the regret trend needs at least 2 rounds")
    policy = ReplanPolicy()

    queries = {}
    for name in names:
        sql = job_query(name)
        plan = env.runner.plan(sql)
        times = strategy_sweep(env, plan)
        oracle_strategy = min(times, key=times.get)
        static = env.planner.decide(
            plan, context=PlanningContext(factor_override=skew))
        static_time = times.get(static.strategy_name)
        if static_time is None:
            # The skewed choice was not in the sweep (infeasible Hk);
            # measure it directly.
            static_time = env.runner.run(
                plan, Stack.HYBRID,
                split_index=static.split_index).total_time
        queries[name] = {
            "oracle_strategy": oracle_strategy,
            "oracle_time": times[oracle_strategy],
            "static_strategy": static.strategy_name,
            "static_time": static_time,
            "sweep": times,
        }

    correction = CostCorrection()
    for name in names:
        correction.prime(job_query(name), skew)
    runner = AdaptiveRunner(env, policy=policy, correction=correction)

    static_round_regret = sum(queries[name]["static_time"]
                              - queries[name]["oracle_time"]
                              for name in names)
    round_rows = []
    for round_index in range(rounds):
        per_query = {}
        adaptive_regret = 0.0
        for name in names:
            sql = job_query(name)
            report = runner.run(sql)
            adaptive_regret += (report.total_time
                                - queries[name]["oracle_time"])
            per_query[name] = {
                "strategy": report.strategy,
                "time": report.total_time,
                "replans": report.adaptivity["replans"],
                "wasted_time": report.adaptivity["wasted_time"],
                "correction_factor": correction.factor(sql),
            }
        round_rows.append({
            "round": round_index,
            "static_regret": static_round_regret,
            "adaptive_regret": adaptive_regret,
            "per_query": per_query,
        })

    total_static = static_round_regret * rounds
    total_adaptive = sum(row["adaptive_regret"] for row in round_rows)
    first = round_rows[0]["adaptive_regret"]
    last = round_rows[-1]["adaptive_regret"]
    return {
        "schema_version": 1,
        "queries": queries,
        "config": {
            "rounds": rounds,
            "skew": skew,
            "alpha": correction.alpha,
            "error_threshold": policy.error_threshold,
            "min_batches": policy.min_batches,
            "max_replans": policy.max_replans,
        },
        "rounds": round_rows,
        "totals": {
            "static_regret": total_static,
            "adaptive_regret": total_adaptive,
            "first_round_regret": first,
            "last_round_regret": last,
            "adaptive_beats_static": total_adaptive < total_static,
            "regret_converged": last <= first,
        },
    }
