"""Concurrent-workload throughput/latency benchmark.

Drives the :class:`~repro.sched.WorkloadScheduler` over a JOB query mix
and summarizes the workload as the standard serving metrics: p50/p95/p99
latency, queries per second, queue waits, placement mix, and
per-resource utilization of the shared kernel.  Everything is seeded and
simulated, so a benchmark summary is a deterministic function of
``(environment, query mix, arrival spec, seed)`` — two runs with the
same inputs serialize to identical JSON, which is what the CI
``concurrency`` job checks by running ``repro bench-concurrent`` twice
and byte-comparing the two ``BENCH_concurrency.json`` files.
"""

from repro.context import ExecutionContext
from repro.errors import ReproError
from repro.sched import (ClosedLoopArrivals, OpenLoopArrivals,
                         WorkloadScheduler)

#: Default query mix: a spread of JOB joins from 1 to 8 tables so the
#: workload exercises every placement (tiny queries stay host-attractive,
#: big ones want the device and contend for its DRAM budget).
DEFAULT_QUERIES = ["1a", "2a", "3b", "4a", "6a", "8c", "16b", "17e"]


def percentile(values, fraction):
    """Linear-interpolated percentile of ``values`` (fraction in [0,1])."""
    if not values:
        raise ReproError("percentile of an empty sample")
    if not 0.0 <= fraction <= 1.0:
        raise ReproError(f"percentile fraction {fraction} outside [0, 1]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def distribution(values):
    """The summary block reported for a latency-like sample."""
    return {
        "p50": percentile(values, 0.50),
        "p95": percentile(values, 0.95),
        "p99": percentile(values, 0.99),
        "mean": sum(values) / len(values),
        "max": max(values),
    }


def run_concurrency_benchmark(env, query_names=None, mode="closed",
                              clients=4, think_time=0.0, stagger=0.0,
                              rate_qps=50.0, repeat=1, seed=0, ctx=None,
                              include_jobs=True):
    """Run one concurrent workload; returns a JSON-ready summary dict.

    ``mode="closed"`` runs ``clients`` closed-loop clients (each submits
    its next query on completion plus ``think_time``); ``mode="open"``
    offers the queries on a Poisson process at ``rate_qps``.  ``repeat``
    replays the query list that many times for a larger sample.  ``seed``
    drives the arrival process (the dataset seed lives in ``env``).
    """
    names = list(query_names or DEFAULT_QUERIES) * max(1, repeat)
    scheduler = WorkloadScheduler(env, ctx=ExecutionContext.coerce(ctx))
    if mode == "closed":
        arrival_spec = {"clients": clients, "think_time": think_time,
                        "stagger": stagger}
        scheduler.submit_closed_loop(
            names, ClosedLoopArrivals(clients=clients,
                                      think_time=think_time,
                                      stagger=stagger, seed=seed))
    elif mode == "open":
        arrival_spec = {"rate_qps": rate_qps}
        scheduler.submit_open_loop(
            names, OpenLoopArrivals(rate_qps=rate_qps, seed=seed))
    else:
        raise ReproError(f"unknown arrival mode {mode!r}; "
                         "expected 'closed' or 'open'")
    result = scheduler.run()
    result.seed = seed

    latencies = result.latencies()
    waits = [job.queue_wait for job in result.completed()]
    summary = {
        "schema_version": 1,
        "mode": mode,
        "seed": seed,
        "arrivals": arrival_spec,
        "query_names": names,
        "queries": len(result.jobs),
        "makespan": result.makespan,
        "queries_per_second": result.queries_per_second(),
        "latency": distribution(latencies),
        "queue_wait": distribution(waits),
        "placements": result.placements(),
        "resource_utilization": {
            name: stats["utilization"]
            for name, stats in result.resource_stats.items()},
        "device": {
            "budget_bytes": result.device_budget_bytes,
            "peak_reserved_bytes": result.peak_reserved_bytes,
        },
    }
    if include_jobs:
        summary["jobs"] = [job.to_dict() for job in result.jobs]
    return summary


def concurrency_matrix(env, query_names=None, client_counts=(1, 2, 4, 8),
                       think_time=0.0, repeat=1, seed=0, rate_qps=None):
    """Closed-loop scaling sweep (plus an optional open-loop point).

    Returns ``{"closed": {clients: summary}, "open": summary | None}`` —
    the throughput/latency curve as the client population grows, which
    is where admission control and load-aware placement become visible.
    """
    closed = {
        clients: run_concurrency_benchmark(
            env, query_names=query_names, mode="closed", clients=clients,
            think_time=think_time, repeat=repeat, seed=seed,
            include_jobs=False)
        for clients in client_counts}
    open_summary = None
    if rate_qps is not None:
        open_summary = run_concurrency_benchmark(
            env, query_names=query_names, mode="open", rate_qps=rate_qps,
            repeat=repeat, seed=seed, include_jobs=False)
    return {"closed": closed, "open": open_summary}
