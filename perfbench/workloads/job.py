"""The three JOB execution workloads: job_sweep, job_noindex, job_heavy."""

import random
from functools import partial

from perfbench.harness import Verdict, Workload
from perfbench.stats import geomean
from perfbench.workloads.common import (build_env, engine_facts, is_report,
                                        judge_report, plan_cache_facts,
                                        sorted_rows)

HOST_ONLY = "host-only"

#: The Fig-12 sample: one or two members of most JOB families.  13b is
#: left out — at 2.3 s it was 43 % of a pass and would have bought one
#: timed pass fewer per run.
SWEEP_QUERIES = ("1a 2a 3b 4a 5c 6a 6d 7a 8c 9d 10a 11a 12c 14a 15d 16b "
                 "19c 20a 21a 22c 24a 26a 28a 29a 30a 32a 33c").split()
#: Sized to the same pass length without secondary indexes (Exp 4).
NOINDEX_QUERIES = ("6a 6d 7a 8c 9d 10a 12c 14a 15d 16b 19c 20a 21a 22c "
                   "24a 28a").split()
#: The long poles ROADMAP names; 31a (180 s host-only) stays out.
HEAVY_QUERIES = ("25a", "17e")
#: Run before job_heavy's single pass so it does not time cold imports.
HEAVY_WARMUP = "8c"


def _run(runner, sql, stack, split_index=None):
    # Looked up per call, not bound once, so a traced run's wrapper
    # around ``StackRunner.run`` is the one that gets called.
    return runner.run(sql, stack, split_index=split_index)


def _query_of(op_id):
    return op_id.split("/", 1)[0]


def _judge_against_host_only(ops, outcomes):
    """Every op's rows must equal its query's host-only rows."""
    verdict = Verdict()
    reference = {}
    for (op_id, _fn), outcome in zip(ops, outcomes):
        if op_id.endswith("/" + HOST_ONLY) and is_report(outcome):
            reference[_query_of(op_id)] = sorted_rows(outcome)
    for (op_id, _fn), outcome in zip(ops, outcomes):
        judge_report(verdict, op_id, outcome,
                     reference.get(_query_of(op_id)))
    return verdict


def _facts(state, outcomes):
    from repro.errors import ReproError
    reports = [outcome for outcome in outcomes if is_report(outcome)]
    refused = sum(isinstance(outcome, ReproError) for outcome in outcomes)
    facts = engine_facts(reports, refused)
    facts.update(plan_cache_facts(state.env.runner))
    facts["workloads.rows_loaded"] = state.env.total_rows
    return facts


class JobSweep(Workload):
    """Every strategy of a JOB query sample on one environment."""

    def __init__(self, name, why, queries, secondary_indexes):
        self.name = name
        self.why = why
        self.queries = queries
        self.secondary_indexes = secondary_indexes

    def setup(self, seed, quick):
        return build_env(self.secondary_indexes)

    def prepare(self, state, seed, quick):
        from repro.engine.stacks import Stack
        from repro.workloads.job_queries import query as job_query
        run = partial(_run, state.env.runner)
        ops = []
        for name in (self.queries[:3] if quick else self.queries):
            sql = job_query(name)
            # Planning here warms the plan cache: the sweep measures
            # execution, plan_cold measures planning.
            plan = state.env.runner.plan(sql)
            ops.append((f"{name}/{HOST_ONLY}", partial(run, sql, Stack.BLK)))
            for k in range(plan.table_count):
                ops.append((f"{name}/H{k}",
                            partial(run, sql, Stack.HYBRID, split_index=k)))
            ops.append((f"{name}/full-ndp", partial(run, sql, Stack.NDP)))
        random.Random(seed).shuffle(ops)
        return ops

    def judge(self, state, ops, outcomes):
        return _judge_against_host_only(ops, outcomes)

    def sim_metrics(self, state, ops, outcomes):
        from repro.workloads.job_queries import query as job_query
        times = {}
        for (op_id, _fn), outcome in zip(ops, outcomes):
            if is_report(outcome):
                name, strategy = op_id.split("/", 1)
                times.setdefault(name, {})[strategy] = outcome.total_time
        speedups, regrets = [], []
        for name, by_strategy in times.items():
            host = by_strategy.get(HOST_ONLY)
            if host is None:
                continue            # its host-only op failed; counted there
            best = min(by_strategy.values())
            speedups.append(host / best)
            choice = state.env.planner.decide(job_query(name)).strategy_name
            # A choice the device then refuses falls back to the host.
            regrets.append(by_strategy.get(choice, host) / best - 1.0)
        return {
            "sim_total_s": sum(sum(by.values()) for by in times.values()),
            "sim_best_speedup_geomean": geomean(speedups),
            "sim_planner_regret_mean": sum(regrets) / len(regrets),
        }

    def layer_facts(self, state, ops, outcomes, best_ns):
        return _facts(state, outcomes)


class JobHeavy(Workload):
    """25a and 17e, host-only and planner-chosen: one pass, single samples."""

    name = "job_heavy"
    why = ("25a and 17e are almost pure LSM point lookups under the indexed "
           "join; per-op fixed costs are invisible here, so a get-path win "
           "shows most and an operator-kernel win least")
    single_pass = True

    def setup(self, seed, quick):
        return build_env(secondary_indexes=True)

    def prepare(self, state, seed, quick):
        from repro.core.strategy import ExecutionStrategy
        from repro.engine.stacks import Stack
        from repro.workloads.job_queries import query as job_query
        runner, planner = state.env.runner, state.env.planner
        runner.run(job_query(HEAVY_WARMUP), Stack.NATIVE)
        run = partial(_run, runner)
        ops = []
        for name in (("17e",) if quick else HEAVY_QUERIES):
            sql = job_query(name)
            decision = planner.decide(sql)
            ops.append((f"{name}/{HOST_ONLY}",
                        partial(run, sql, Stack.NATIVE)))
            if decision.strategy is ExecutionStrategy.HYBRID:
                chosen = partial(run, sql, Stack.HYBRID,
                                 split_index=decision.split_index)
            elif decision.strategy is ExecutionStrategy.FULL_NDP:
                chosen = partial(run, sql, Stack.NDP)
            else:
                chosen = partial(run, sql, Stack.NATIVE)
            ops.append((f"{name}/planner:{decision.strategy_name}", chosen))
        random.Random(seed).shuffle(ops)
        return ops

    def judge(self, state, ops, outcomes):
        return _judge_against_host_only(ops, outcomes)

    def sim_metrics(self, state, ops, outcomes):
        return {"sim_total_s": sum(outcome.total_time
                                   for outcome in outcomes
                                   if is_report(outcome))}

    def layer_facts(self, state, ops, outcomes, best_ns):
        return _facts(state, outcomes)


JOB_SWEEP = JobSweep(
    "job_sweep",
    "the Fig-12 matrix users run: 27 JOB queries x every strategy with "
    "secondary indexes, so indexed joins and LSM point lookups dominate",
    SWEEP_QUERIES, secondary_indexes=True)

JOB_NOINDEX = JobSweep(
    "job_noindex",
    "the same engine without secondary indexes (Exp 4): joins fall back "
    "to scans, so batch decode and ColumnBatch kernels work, not LSM gets",
    NOINDEX_QUERIES, secondary_indexes=False)

JOB_HEAVY = JobHeavy()
