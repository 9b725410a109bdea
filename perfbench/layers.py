"""Turn a traced run's recorders into the named per-layer metrics.

Times come from the wrappers (``perfbench.tracing``): ``_busy_s`` is the
cumulative host time inside a wrapped public call, ``_self_s`` that time
minus what its wrapped children cover.  Counts come from the program's
public outputs via each workload's ``layer_facts`` and repeat exactly.
A metric a workload never touches is reported as 0.
"""

from perfbench import metrics
from perfbench.stats import percentile, tail_percentile
from perfbench.tracing import GET_STAT_FIELDS, OP_KEY
from perfbench.workloads.lsm_mixed import STALL_NS

_KERNELS = ("select", "take", "concat", "project", "from_rows")


def layer_metrics(workload, state, ops, outcomes, best_ns, setup_rec,
                  pass_rec, traced_times, end_to_end, drift, pass_spread,
                  setup_scale, pass_scale, box_slowdown):
    """``{metric name: value}`` for every per-layer metric that applies.

    ``setup_scale`` / ``pass_scale`` take the wrappers' measured times to
    reference speed (:mod:`perfbench.speed`), the footing the end-to-end
    metrics are on.
    """
    setup = setup_rec.summary()
    traced = pass_rec.summary()

    def busy_s(key, summary=traced, scale=pass_scale):
        return summary.get(key, {}).get("busy_ns", 0) / 1e9 * scale

    def self_s(key):
        return traced.get(key, {}).get("self_ns", 0) / 1e9 * pass_scale

    def _us(recorder, key, pct):
        """Percentile (µs) of a key's call durations; 0 without calls."""
        durations = recorder.durations(key)
        if not durations:
            return 0
        if pct is None:
            return tail_percentile(durations, 95)[0] / 1e3 * pass_scale
        return percentile(durations, pct) / 1e3 * pass_scale

    def calls(key):
        return traced.get(key, {}).get("calls", 0)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0

    # The scheduler's admission and completion callbacks run as actions of
    # the event loop it drains, so "scheduler minus engine children" is
    # its own self time plus that loop's.
    scheduler_dispatch_s = sum(
        span.self_ns for span in pass_rec.spans
        if span.key == "sim.event_loop"
        and span.parent.key == "sched.run") / 1e9 * pass_scale
    get_stats = dict(zip(GET_STAT_FIELDS, pass_rec.get_stats))
    gets = calls("lsm.get")
    out = {
        # set-up, from the traced set-up
        "workloads.generate_s": busy_s("workloads.generate", setup, setup_scale),
        "relational.insert_many_s": busy_s("relational.insert_many", setup, setup_scale),
        "lsm.flush_all_s": busy_s("lsm.flush_all", setup, setup_scale),
        "core.profile_s": busy_s("core.profile", setup, setup_scale),
        "cluster.build_s": busy_s("cluster.build", setup, setup_scale),
        # relational
        "relational.scan_batch_calls": calls("relational.scan_batch"),
        "relational.scan_batch_busy_s": busy_s("relational.scan_batch"),
        "relational.decode_busy_s": busy_s("relational.decode"),
        "relational.decode_rows_per_s": ratio(
            pass_rec.decode_rows, busy_s("relational.decode")),
        "relational.get_record_calls": calls("relational.get_record"),
        "relational.index_lookup_calls": calls("relational.index_lookup"),
        "relational.index_lookup_busy_s": busy_s("relational.index_lookup"),
        # lsm
        "lsm.get_calls": gets,
        "lsm.get_busy_s": busy_s("lsm.get"),
        "lsm.get_us_mean": ratio(busy_s("lsm.get") * 1e6, gets),
        "lsm.scan_calls": calls("lsm.scan"),
        "lsm.scan_busy_s": busy_s("lsm.scan"),
        "lsm.ssts_per_get": ratio(get_stats["ssts_considered"], gets),
        "lsm.key_comparisons_per_get": ratio(
            get_stats["key_comparisons"], gets),
        "lsm.bloom_negative_ratio": ratio(
            get_stats["bloom_negatives"], get_stats["bloom_probes"]),
        "lsm.get_us_p50": _us(pass_rec, "lsm.get", 50),
        "lsm.get_us_p99": _us(pass_rec, "lsm.get", 99),
        "lsm.put_us_p50": _us(pass_rec, "lsm.put", 50),
        "lsm.put_us_p999": _us(pass_rec, "lsm.put", 99.9),
        "lsm.scan_us_p50": _us(pass_rec, "lsm.scan", 50),
        "lsm.stall_puts": sum(
            1 for ns in pass_rec.durations("lsm.put")
            if ns * pass_scale > STALL_NS),
        "lsm.compaction_busy_s": busy_s("lsm.compaction"),
        # columns
        "columns.kernel_calls": sum(
            calls(f"columns.{kernel}") for kernel in _KERNELS),
        # query
        "query.parse_us_p50": _us(pass_rec, "query.parse", 50),
        "query.build_plan_us_p50": _us(pass_rec, "query.build_plan", 50),
        "query.build_plan_us_p95": _us(pass_rec, "query.build_plan", None),
        "query.render_us_p50": _us(pass_rec, "query.render", 50),
        "query.eval_mask_busy_s": busy_s("query.eval_mask"),
        # core
        "core.decide_us_p50": _us(pass_rec, "core.decide", 50),
        "core.decide_us_p95": _us(pass_rec, "core.decide", None),
        "core.plan_cost_us_p50": _us(pass_rec, "core.plan_cost", 50),
        "core.choose_split_us_p50": _us(pass_rec, "core.choose_split", 50),
        # engine
        "engine.pipeline_self_s": self_s("engine.pipeline"),
        "engine.host_execute_s": busy_s("engine.host_execute"),
        "engine.cooperative_self_s": self_s("engine.cooperative"),
        "engine.plan_cache_hit_us": ratio(
            self_s("engine.plan") * 1e6, calls("engine.plan")),
        # sim / sched / cluster
        "sim.event_loop_busy_s": busy_s("sim.event_loop"),
        "sched.run_self_s": self_s("sched.run") + scheduler_dispatch_s,
        "cluster.run_ms_p50": _us(pass_rec, "cluster.run", 50) / 1e3,
    }
    for kernel in _KERNELS:
        out[f"columns.{kernel}_busy_s"] = busy_s(f"columns.{kernel}")

    layer_self = pass_rec.layer_self_ns()
    for layer in metrics.LAYERS:
        out[f"{layer}.self_s"] = layer_self.get(layer, 0) / 1e9 * pass_scale

    out.update(workload.layer_facts(state, ops, outcomes, best_ns))
    out["sim.requests_per_host_s"] = ratio(
        out.get("sim.resource_requests", 0), out["sim.event_loop_busy_s"])

    traced_wall_s = sum(traced_times) / 1e9
    out.update({
        "harness.pass_spread": pass_spread,
        "harness.box_slowdown": box_slowdown,
        "harness.trace_overhead_share": (
            (traced_wall_s - end_to_end["wall_s"]) / end_to_end["wall_s"]),
        "harness.trace_spans": len(pass_rec.spans),
        "harness.traced_wall_s": traced_wall_s,
        "harness.unattributed_s": self_s(OP_KEY),
        "harness.rows_digest_changed": drift["rows"],
        "harness.sim_digest_changed": drift["sim"],
        "harness.counts_digest_changed": drift["counts"],
    })
    for name in metrics.END_TO_END:
        if name in metrics.PER_LAYER and name in end_to_end:
            out[name] = end_to_end[name]
    return out
