"""Multi-device scaling benchmark.

Sweeps device counts (default 1/2/4/8) over a JOB query mix, twice per
count:

* **scatter-gather** — each query runs once across the whole cluster
  (:class:`~repro.cluster.ScatterGatherExecutor`); the summary reports
  the per-query latency distribution, the speedup against the same
  sweep's single-device cell, and per-device resource utilization.
* **workload** — the same mix runs as a closed-loop workload through
  :class:`~repro.sched.WorkloadScheduler` in cluster mode (whole-query
  least-loaded placement), reporting makespan and throughput.

Everything is seeded and simulated: a summary is a deterministic
function of ``(environment, query mix, partitioner, seed)``, so two
runs serialize to identical JSON — CI runs ``python -m repro experiment
cluster`` twice and byte-compares the two payloads.
"""

from repro.bench.concurrency import DEFAULT_QUERIES, distribution
from repro.cluster import DeviceCluster
from repro.sched import ClosedLoopArrivals, WorkloadScheduler
from repro.storage.topology import PartitionSpec
from repro.workloads.job_queries import query as job_query

#: Device counts of the scaling sweep.
DEFAULT_DEVICE_COUNTS = (1, 2, 4, 8)
#: The driving-table layout of every cell.
PARTITIONER = "range"
#: Seeds the partitioner and the closed-loop arrivals.
SEED = 0


def run_cluster_benchmark(env, n_devices, query_names=None, clients=4):
    """One cell of the scaling sweep; returns a JSON-ready summary.

    Builds an ``n_devices`` cluster over ``env``'s mirrored store with
    the seeded :data:`PARTITIONER` layout, scatter-gathers every query
    once, then replays the mix as a closed-loop scheduled workload of
    ``clients`` clients on the same cluster.
    """
    names = list(query_names or DEFAULT_QUERIES)
    spec = PartitionSpec(kind=PARTITIONER, seed=SEED)
    cluster = DeviceCluster(env, n_devices=n_devices, partitioner=spec)

    queries = []
    for name in names:
        report = cluster.run(job_query(name))
        placements = {}
        for part in report.cluster["partitions"]:
            key = part["placement"]
            placements[key] = placements.get(key, 0) + 1
        queries.append({
            "name": name,
            "total_time": report.total_time,
            "rows": len(report.result.rows),
            "strategy": report.strategy,
            "placements": dict(sorted(placements.items())),
            "device_utilization": {
                resource: stats["utilization"]
                for resource, stats in report.resource_stats.items()},
        })
    latencies = [entry["total_time"] for entry in queries]

    scheduler = WorkloadScheduler(env, cluster=cluster)
    scheduler.submit_closed_loop(
        names, ClosedLoopArrivals(clients=clients, seed=SEED))
    workload = scheduler.run()
    workload.seed = SEED

    return {
        "schema_version": 1,
        "n_devices": n_devices,
        "seed": SEED,
        "partitioner": cluster.partitioner.describe(),
        "query_names": names,
        "scatter_gather": {
            "latency": distribution(latencies),
            "total_time": sum(latencies),
            "queries": queries,
        },
        "workload": {
            "clients": clients,
            "makespan": workload.makespan,
            "queries_per_second": workload.queries_per_second(),
            "placements": workload.placements(),
            "resource_utilization": {
                name: stats["utilization"]
                for name, stats in workload.resource_stats.items()},
        },
    }


def cluster_matrix(env):
    """The scaling sweep: one summary per device count of
    :data:`DEFAULT_DEVICE_COUNTS` over the default query mix, plus
    speedups.

    Speedup is the single-device cell's total scatter-gather time (or
    workload makespan) over each cell's own — >1 means the cluster
    helped.
    """
    cells = {n_devices: run_cluster_benchmark(env, n_devices)
             for n_devices in DEFAULT_DEVICE_COUNTS}
    baseline = cells[1]
    base_total = baseline["scatter_gather"]["total_time"]
    base_makespan = baseline["workload"]["makespan"]
    for summary in cells.values():
        own_total = summary["scatter_gather"]["total_time"]
        own_makespan = summary["workload"]["makespan"]
        summary["speedup"] = {
            "scatter_gather": (base_total / own_total
                               if own_total > 0 else None),
            "workload": (base_makespan / own_makespan
                         if own_makespan > 0 else None),
        }
    return {
        "partitioner": PARTITIONER,
        "seed": SEED,
        "device_counts": list(DEFAULT_DEVICE_COUNTS),
        "cells": cells,
    }
