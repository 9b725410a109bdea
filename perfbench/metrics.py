"""The metric registry: every name, unit, direction and bound in one place.

``BENCHMARK.json`` is checked against this module by the self-tests.  Two
of the driver's rules shape it: every workload must report every
end-to-end metric, and an end-to-end metric may never be 0.  So the
*contract* end-to-end set is the six host-clock metrics every workload
has; ``failed_ops_share`` (0 on a healthy run) and the five ``sim_*``
metrics (defined on the workloads that simulate) stay end-to-end metrics
of perfbench's own result files and of ``compare`` — where they compare
exactly — and are listed under ``per_layer`` in ``BENCHMARK.json``.
"""

from dataclasses import dataclass

#: Relative tolerance of metrics on the deterministic simulated clock.
EXACT = 1e-9

WORKLOADS = ("job_sweep", "job_noindex", "job_heavy", "plan_cold",
             "sched_cluster", "lsm_mixed")
_SWEEPS = ("job_sweep", "job_noindex")
_JOB = _SWEEPS + ("job_heavy",)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str            # "lower" | "higher"
    bound: float = None    # regression bound (share of the base value)
    workloads: tuple = WORKLOADS
    meaning: str = ""

    @property
    def exact(self):
        return self.bound == EXACT


def _index(entries):
    return {entry.name: entry for entry in entries}


END_TO_END = _index([
    Metric("setup_s", "s", "lower", 0.20, meaning=(
        "build env / cluster / preload before the first op (median of "
        "the run's set-ups)")),
    Metric("wall_s", "s", "lower", 0.10, meaning=(
        "sum of per-op minima = host time of one pass")),
    Metric("op_ms_p50", "ms", "lower", 0.10, meaning="median op"),
    Metric("op_ms_p95", "ms", "lower", 0.15, meaning=(
        "p95 op, or the highest percentile with ten ops beyond it")),
    Metric("op_ms_geomean", "ms", "lower", 0.10, meaning=(
        "weights every op equally: fixed per-op cost that wall_s hides "
        "behind heavy queries")),
    Metric("failed_ops_share", "ratio", "lower", 0.0, meaning=(
        "failed / attempted ops")),
    Metric("peak_rss_mb", "MiB", "lower", 0.10, meaning=(
        "ru_maxrss of the workload process")),
    Metric("sim_total_s", "sim_s", "lower", EXACT, _JOB, (
        "sum of ExecutionReport.total_time over feasible ops")),
    Metric("sim_best_speedup_geomean", "ratio", "higher", EXACT, _SWEEPS, (
        "geomean over queries of host-only / best-strategy simulated "
        "time: the paper's headline")),
    Metric("sim_planner_regret_mean", "ratio", "lower", EXACT, _SWEEPS, (
        "mean of (time of planner.decide's strategy / best) - 1: Fig 13")),
    Metric("sim_qps", "sim_1/s", "higher", EXACT, ("sched_cluster",), (
        "closed-loop phase queries_per_second()")),
    Metric("sim_latency_ms_p95", "sim_ms", "lower", EXACT,
           ("sched_cluster",), (
               "closed-loop phase tail of WorkloadResult.latencies()")),
])

#: What ``--trace 0`` prints for the driver: defined and non-zero on every
#: workload.
CONTRACT_END_TO_END = ("setup_s", "wall_s", "op_ms_p50", "op_ms_p95",
                       "op_ms_geomean", "peak_rss_mb")


def _layer(prefix, *entries):
    return [Metric(f"{prefix}.{name}", unit, better)
            for name, unit, better in entries]


_LOW, _HIGH = "lower", "higher"

PER_LAYER = _index(
    _layer("workloads",
           ("generate_s", "s", _LOW), ("rows_loaded", "count", _HIGH),
           ("self_s", "s", _LOW))
    + _layer("relational",
             ("insert_many_s", "s", _LOW),
             ("scan_batch_calls", "count", _LOW),
             ("scan_batch_busy_s", "s", _LOW),
             ("decode_busy_s", "s", _LOW),
             ("decode_rows_per_s", "1/s", _HIGH),
             ("get_record_calls", "count", _LOW),
             ("index_lookup_calls", "count", _LOW),
             ("index_lookup_busy_s", "s", _LOW),
             ("self_s", "s", _LOW))
    + _layer("lsm",
             ("get_calls", "count", _LOW), ("get_busy_s", "s", _LOW),
             ("get_us_mean", "us", _LOW),
             ("scan_calls", "count", _LOW), ("scan_busy_s", "s", _LOW),
             ("ssts_per_get", "ratio", _LOW),
             ("key_comparisons_per_get", "ratio", _LOW),
             ("bloom_negative_ratio", "ratio", _HIGH),
             ("block_cache_hit_ratio", "ratio", _HIGH),
             ("get_us_p50", "us", _LOW), ("get_us_p99", "us", _LOW),
             ("put_us_p50", "us", _LOW), ("put_us_p999", "us", _LOW),
             ("scan_us_p50", "us", _LOW),
             ("stall_puts", "count", _LOW),
             ("flushes", "count", _LOW), ("compactions", "count", _LOW),
             ("compaction_busy_s", "s", _LOW),
             ("write_amp", "ratio", _LOW), ("space_amp", "ratio", _LOW),
             ("flush_all_s", "s", _LOW),
             ("self_s", "s", _LOW))
    + _layer("columns",
             ("select_busy_s", "s", _LOW), ("take_busy_s", "s", _LOW),
             ("concat_busy_s", "s", _LOW), ("project_busy_s", "s", _LOW),
             ("from_rows_busy_s", "s", _LOW),
             ("kernel_calls", "count", _LOW),
             ("self_s", "s", _LOW))
    + _layer("query",
             ("parse_us_p50", "us", _LOW),
             ("build_plan_us_p50", "us", _LOW),
             ("build_plan_us_p95", "us", _LOW),
             ("render_us_p50", "us", _LOW),
             ("eval_mask_busy_s", "s", _LOW),
             ("self_s", "s", _LOW))
    + _layer("core",
             ("decide_us_p50", "us", _LOW), ("decide_us_p95", "us", _LOW),
             ("plan_cost_us_p50", "us", _LOW),
             ("choose_split_us_p50", "us", _LOW),
             ("profile_s", "s", _LOW),
             ("self_s", "s", _LOW))
    + _layer("engine",
             ("pipeline_self_s", "s", _LOW), ("host_execute_s", "s", _LOW),
             ("cooperative_self_s", "s", _LOW),
             ("plan_cache_hit_us", "us", _LOW),
             ("plan_cache_hit_ratio", "ratio", _HIGH),
             ("report_to_dict_us_p50", "us", _LOW),
             ("index_seeks", "count", _LOW),
             ("records_evaluated", "count", _LOW),
             ("hash_probes", "count", _LOW),
             ("bytes_materialized", "count", _LOW),
             ("flash_bytes_read", "count", _LOW),
             ("batches", "count", _LOW),
             ("infeasible_strategies", "count", _LOW),
             ("phase_adaptive_s", "s", _LOW),
             ("self_s", "s", _LOW))
    + _layer("sim",
             ("event_loop_busy_s", "s", _LOW),
             ("resource_requests", "count", _LOW),
             ("requests_per_host_s", "1/s", _HIGH),
             ("util.pcie_link", "ratio", _HIGH),
             ("util.device_core1", "ratio", _HIGH),
             ("util.host_cpu", "ratio", _HIGH),
             ("trace_export_ms", "ms", _LOW),
             ("self_s", "s", _LOW))
    + _layer("sched",
             ("jobs", "count", _HIGH), ("run_self_s", "s", _LOW),
             ("phase_closed_s", "s", _LOW), ("phase_open_s", "s", _LOW),
             ("phase_replan_s", "s", _LOW),
             ("sim_queue_wait_ms_p95", "sim_ms", _LOW),
             ("host_only_share", "ratio", _LOW),
             ("replans", "count", _LOW),
             ("self_s", "s", _LOW))
    + _layer("cluster",
             ("build_s", "s", _LOW), ("phase_s", "s", _LOW),
             ("run_ms_p50", "ms", _LOW),
             ("sim_speedup_4dev", "ratio", _HIGH),
             ("partitions_run", "count", _LOW),
             ("self_s", "s", _LOW))
    + _layer("harness",
             ("pass_spread", "ratio", _LOW),
             ("box_slowdown", "ratio", _LOW),
             ("trace_overhead_share", "ratio", _LOW),
             ("trace_spans", "count", _LOW),
             ("traced_wall_s", "s", _LOW),
             ("unattributed_s", "s", _LOW),
             ("rows_digest_changed", "bool", _LOW),
             ("sim_digest_changed", "bool", _LOW),
             ("counts_digest_changed", "bool", _LOW))
    # End-to-end metrics the driver's contract cannot carry (see module
    # docstring); in a traced run they must equal the untraced values.
    + [Metric(m.name, m.unit, m.better) for m in END_TO_END.values()
       if m.name not in CONTRACT_END_TO_END])

#: Layers whose self times partition the traced wall time.
LAYERS = ("workloads", "relational", "lsm", "columns", "query", "core",
          "engine", "sim", "sched", "cluster")


def benchmark_manifest(run_seconds, workloads):
    """The dict ``BENCHMARK.json`` must equal (``workloads``: name->why)."""
    return {
        "command": ["python3", "-m", "perfbench"],
        "paths": ["perfbench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": why}
                      for name, why in workloads.items()],
        "end_to_end": [
            {"name": name, "unit": END_TO_END[name].unit,
             "better": END_TO_END[name].better,
             "bound": CONTRACT_BOUNDS[name]}
            for name in CONTRACT_END_TO_END],
        "per_layer": [
            {"name": metric.name, "unit": metric.unit,
             "better": metric.better}
            for metric in PER_LAYER.values()],
    }


#: Bounds the driver enforces.  It measures them *across seeds* and across
#: whatever the shared box is doing that quarter of an hour, so they must
#: cover seed-to-seed variation of the inputs (generated SQL, arrival
#: order, KV op stream) and the box's speed drift on top of run-to-run
#: noise: over ten seeds the host-time metrics spread (inter-quartile /
#: median) by 4 % .. 14 % and ``peak_rss_mb`` by up to 4 % (README).
#: ``compare`` applies the tighter same-seed bounds of :data:`END_TO_END`.
CONTRACT_BOUNDS = {
    "setup_s": 0.25,
    "wall_s": 0.25,
    "op_ms_p50": 0.25,
    "op_ms_p95": 0.25,
    "op_ms_geomean": 0.25,
    "peak_rss_mb": 0.15,
}
