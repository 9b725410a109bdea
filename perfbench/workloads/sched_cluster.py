"""sched_cluster: the four execution drivers on the shared sim kernel."""

import random
import time
from functools import partial

from perfbench.harness import Failure, Verdict, Workload
from perfbench.stats import geomean, percentile, tail_percentile
from perfbench.workloads.common import (build_env, engine_facts, is_report,
                                        judge_report, plan_cache_facts,
                                        sorted_rows)

MIX = "1a 2a 3b 4a 6a 8c 10a 14a 16b 22c".split()
#: Scheduler phases run the mix this many times (80 jobs); the ISSUE's 200
#: would make one pass 8 s and leave a single timed pass per run.
SCHED_REPEATS = 8
#: Scatter-gather and adaptive phases run each query this many times.
DIRECT_REPEATS = 3
CLIENTS = 4
OPEN_QPS = 200.0
DEVICES = 4

CLOSED, OPEN, REPLAN = "sched/closed", "sched/open", "sched/replan"
CLUSTER_CLOSED = "cluster/closed"


def _closed_loop(state, names, seed, **scheduler_kwargs):
    from repro.sched import ClosedLoopArrivals, WorkloadScheduler
    scheduler = WorkloadScheduler(state.env, **scheduler_kwargs)
    scheduler.submit_closed_loop(
        names, ClosedLoopArrivals(clients=CLIENTS, seed=seed))
    return scheduler.run()


def _open_loop(state, names, seed):
    from repro.sched import OpenLoopArrivals, WorkloadScheduler
    scheduler = WorkloadScheduler(state.env)
    scheduler.submit_open_loop(
        names, OpenLoopArrivals(rate_qps=OPEN_QPS, seed=seed))
    return scheduler.run()


def _replanning(state, names, seed):
    from repro.core import CostCorrection, ReplanPolicy
    return _closed_loop(state, names, seed, replan=ReplanPolicy(),
                        correction=CostCorrection())


def _adaptive(state, sql):
    return state.adaptive.run(sql)


def _scatter_gather(state, sql):
    return state.cluster.run(sql)


def _is_workload_result(outcome):
    return hasattr(outcome, "jobs")


class SchedCluster(Workload):
    name = "sched_cluster"
    why = ("scheduler closed/open/replanning loops, 4-device scatter-gather "
           "and adaptive runs over one 10-query mix: driver overhead shows "
           "here while an engine change shows equally in job_sweep")

    def setup(self, seed, quick):
        from repro.cluster import DeviceCluster
        state = build_env(secondary_indexes=True)
        state.cluster = DeviceCluster(state.env, DEVICES)
        return state

    def prepare(self, state, seed, quick):
        from repro.engine.stacks import Stack
        from repro.workloads.job_queries import query as job_query
        mix = MIX[:3] if quick else MIX
        rng = random.Random(seed)
        state.sql = {name: job_query(name) for name in mix}
        state.reference = {
            name: sorted_rows(state.env.runner.run(sql, Stack.NATIVE))
            for name, sql in state.sql.items()}
        scheduled = mix * (1 if quick else SCHED_REPEATS)
        direct = mix * (1 if quick else DIRECT_REPEATS)
        rng.shuffle(scheduled)
        rng.shuffle(direct)
        ops = [
            (CLOSED, partial(_closed_loop, state, scheduled, seed)),
            (OPEN, partial(_open_loop, state, scheduled, seed)),
            (REPLAN, partial(_replanning, state, scheduled, seed)),
        ]
        ops += [(f"cluster/run/{name}#{index}",
                 partial(_scatter_gather, state, state.sql[name]))
                for index, name in enumerate(direct)]
        ops.append((CLUSTER_CLOSED,
                    partial(_closed_loop, state, direct, seed,
                            cluster=state.cluster)))
        ops += [(f"adaptive/{name}#{index}",
                 partial(_adaptive, state, state.sql[name]))
                for index, name in enumerate(direct)]
        return ops

    def begin_pass(self, state, timed_setup):
        from repro.engine.adaptive import AdaptiveRunner
        # The runner's EWMA correction carries over between its runs, so
        # every pass starts from a fresh one and replays the same history.
        state.adaptive = AdaptiveRunner(state.env)

    def judge(self, state, ops, outcomes):
        verdict = Verdict()
        for (op_id, _fn), outcome in zip(ops, outcomes):
            if isinstance(outcome, Failure):
                verdict.failures[op_id] = outcome.reason
            elif isinstance(outcome, Exception):
                # No device is overloaded by this mix: a refusal is a bug.
                verdict.failures[op_id] = repr(outcome)
            elif _is_workload_result(outcome):
                verdict.sims.append((op_id, repr(outcome.makespan)))
                for job in outcome.jobs:
                    job_id = f"{op_id}/{job.label}"
                    if job.report is None:
                        verdict.failures[op_id] = f"{job.label} not run"
                        continue
                    judged = Verdict()
                    judge_report(judged, job_id, job.report,
                                 state.reference[job.name])
                    if judged.failures:
                        verdict.failures[op_id] = (
                            f"{job.label}: {judged.failures[job_id]}")
                    verdict.rows += judged.rows
                    verdict.sims.append((job_id, repr(job.latency)))
                    verdict.counts.append((job_id, job.placement))
            else:
                name = op_id.split("/")[-1].split("#")[0]
                judge_report(verdict, op_id, outcome, state.reference[name])
        return verdict

    def sim_metrics(self, state, ops, outcomes):
        closed = _outcome(ops, outcomes, CLOSED)
        if not _is_workload_result(closed):
            return {}
        tail_s, _used = tail_percentile(closed.latencies(), 95)
        return {"sim_qps": closed.queries_per_second(),
                "sim_latency_ms_p95": tail_s * 1e3}

    def layer_facts(self, state, ops, outcomes, best_ns):
        from repro.cluster import DeviceCluster
        reports, results = [], {}
        for (op_id, _fn), outcome in zip(ops, outcomes):
            if _is_workload_result(outcome):
                results[op_id] = outcome
                reports += [job.report for job in outcome.jobs
                            if job.report is not None]
            elif is_report(outcome):
                reports.append(outcome)
        facts = engine_facts(reports, refused=0)
        facts.update(plan_cache_facts(state.env.runner))
        facts["workloads.rows_loaded"] = state.env.total_rows

        def phase_s(prefix):
            return sum(ns for (op_id, _fn), ns in zip(ops, best_ns)
                       if op_id.startswith(prefix)) / 1e9

        facts["sched.phase_closed_s"] = phase_s(CLOSED)
        facts["sched.phase_open_s"] = phase_s(OPEN)
        facts["sched.phase_replan_s"] = phase_s(REPLAN)
        facts["cluster.phase_s"] = phase_s("cluster/")
        facts["engine.phase_adaptive_s"] = phase_s("adaptive/")
        facts["sched.jobs"] = sum(len(r.jobs) for r in results.values())

        closed = results.get(CLOSED)
        if closed is not None:
            waits = [job.queue_wait for job in closed.completed()]
            facts["sched.sim_queue_wait_ms_p95"] = (
                tail_percentile(waits, 95)[0] * 1e3)
            facts["sched.host_only_share"] = (
                closed.placements().get("host-only", 0) / len(closed.jobs))
            stats = closed.resource_stats
            facts["sim.resource_requests"] = sum(
                entry["requests"] for entry in stats.values())
            for resource in ("pcie_link", "device_core1", "host_cpu"):
                facts[f"sim.util.{resource}"] = (
                    stats[resource]["utilization"])
        replanned = results.get(REPLAN)
        if replanned is not None:
            facts["sched.replans"] = (
                replanned.extras["adaptivity"]["replans"])

        scattered = [outcome for (op_id, _fn), outcome in zip(ops, outcomes)
                     if op_id.startswith("cluster/run/")
                     and is_report(outcome)]
        facts["cluster.partitions_run"] = sum(
            1 for report in scattered
            for part in report.cluster["partitions"]
            if part["placement"] != "empty")
        single = DeviceCluster(state.env, 1)
        facts["cluster.sim_speedup_4dev"] = geomean([
            single.run(sql).total_time / state.cluster.run(sql).total_time
            for sql in state.sql.values()])
        facts["sim.trace_export_ms"] = _trace_export_ms(state)
        return facts


def _outcome(ops, outcomes, wanted):
    for (op_id, _fn), outcome in zip(ops, outcomes):
        if op_id == wanted:
            return outcome
    return None


def _trace_export_ms(state):
    """Export one traced 8c H3 run as Chrome JSON; median of five."""
    from repro.context import ExecutionContext
    from repro.engine.stacks import Stack
    from repro.sim import Tracer
    from repro.workloads.job_queries import query as job_query
    tracer = Tracer()
    state.env.runner.run(job_query("8c"), Stack.HYBRID, split_index=3,
                         ctx=ExecutionContext(tracer=tracer))
    samples = []
    for _ in range(5):
        start = time.perf_counter_ns()
        tracer.dumps()
        samples.append((time.perf_counter_ns() - start) / 1e6)
    return percentile(samples, 50)


SCHED_CLUSTER = SchedCluster()
