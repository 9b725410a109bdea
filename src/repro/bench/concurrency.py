"""Concurrent-workload throughput/latency benchmark.

Drives the :class:`~repro.sched.WorkloadScheduler` over a JOB query mix
and summarizes the workload as the standard serving metrics: p50/p95/p99
latency, queries per second, queue waits, placement mix, and
per-resource utilization of the shared kernel.  Everything is seeded and
simulated, so a benchmark summary is a deterministic function of
``(environment, query mix, arrival spec, seed)`` — two runs with the
same inputs serialize to identical JSON, which is what CI checks by
running ``python -m repro experiment concurrency`` twice and
byte-comparing the two payloads.
"""

from repro.errors import ReproError
from repro.sched import (ClosedLoopArrivals, OpenLoopArrivals,
                         WorkloadScheduler)

#: Default query mix: a spread of JOB joins from 1 to 8 tables so the
#: workload exercises every placement (tiny queries stay host-attractive,
#: big ones want the device and contend for its DRAM budget).
DEFAULT_QUERIES = ["1a", "2a", "3b", "4a", "6a", "8c", "16b", "17e"]

#: Closed-loop client populations of :func:`concurrency_matrix`.
CLIENT_COUNTS = (1, 2, 4, 8)
#: Offered rate of every open-loop run; a float, as it is echoed
#: into the payload's ``arrivals``.
OPEN_LOOP_RATE_QPS = 200.0


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
                              clients=4, think_time=0.0, seed=0,
                              include_jobs=True):
    """Run one concurrent workload; returns a JSON-ready summary dict.

    ``mode="closed"`` runs ``clients`` closed-loop clients (each submits
    its next query on completion plus ``think_time``); ``mode="open"``
    offers the queries on a Poisson process at
    :data:`OPEN_LOOP_RATE_QPS`.  ``seed`` drives the arrival process (the
    dataset seed lives in ``env``).
    """
    names = list(query_names or DEFAULT_QUERIES)
    scheduler = WorkloadScheduler(env)
    if mode == "closed":
        arrivals = ClosedLoopArrivals(clients=clients, think_time=think_time,
                                      seed=seed)
        arrival_spec = {"clients": clients, "think_time": think_time,
                        "stagger": arrivals.stagger}
        scheduler.submit_closed_loop(names, arrivals)
    elif mode == "open":
        arrival_spec = {"rate_qps": OPEN_LOOP_RATE_QPS}
        scheduler.submit_open_loop(
            names, OpenLoopArrivals(rate_qps=OPEN_LOOP_RATE_QPS, seed=seed))
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


def concurrency_matrix(env):
    """Closed-loop scaling sweep over :data:`CLIENT_COUNTS` plus one
    open-loop point at :data:`OPEN_LOOP_RATE_QPS`.

    Returns ``{"closed": {clients: summary}, "open": summary}`` — the
    throughput/latency curve as the client population grows, which is
    where admission control and load-aware placement become visible.
    """
    closed = {
        clients: run_concurrency_benchmark(
            env, mode="closed", clients=clients, include_jobs=False)
        for clients in CLIENT_COUNTS}
    open_summary = run_concurrency_benchmark(env, mode="open",
                                             include_jobs=False)
    return {"closed": closed, "open": open_summary}
