"""Helpers shared by the workloads that run queries on an Environment."""

import json
import os
import time
from types import SimpleNamespace

from perfbench.harness import DATASET_SEED, SCALE, Failure
from perfbench.stats import percentile


def build_env(secondary_indexes=True):
    """A fresh Environment at the benchmark's scale and dataset seed."""
    from repro.workloads.loader import build_environment
    # With a workload cache the second set-up would skip generation and
    # setup_s would stop covering it.
    os.environ.pop("REPRO_WORKLOAD_CACHE", None)
    env = build_environment(scale=SCALE, seed=DATASET_SEED,
                            secondary_indexes=secondary_indexes)
    return SimpleNamespace(env=env)


def sorted_rows(report):
    return report.result.sorted_rows()


def _counts_payload(report):
    return json.dumps({"host": report.host_counters.as_dict(),
                       "device": report.device_counters.as_dict(),
                       "batches": report.batches}, sort_keys=True)


def judge_report(verdict, op_id, outcome, reference_rows):
    """File one report-valued outcome into ``verdict``.

    A typed refusal (``ReproError``: the strategy does not fit the
    device) is a completed, infeasible op; rows that differ from the
    host-only rows of the same query are a failed op.
    """
    from repro.errors import ReproError
    if isinstance(outcome, Failure):
        verdict.failures[op_id] = outcome.reason
        return
    if isinstance(outcome, ReproError):
        verdict.counts.append((op_id, f"refused:{type(outcome).__name__}"))
        return
    rows = sorted_rows(outcome)
    if rows != reference_rows:
        verdict.failures[op_id] = "rows differ from the host-only rows"
    verdict.rows.append((op_id, repr(rows)))
    verdict.sims.append((op_id, repr(outcome.total_time)))
    verdict.counts.append((op_id, _counts_payload(outcome)))


def is_report(outcome):
    return hasattr(outcome, "host_counters")


def engine_facts(reports, refused):
    """Exact ``engine.*`` / ``lsm.block_cache_hit_ratio`` sums over reports."""
    totals = {}
    for report in reports:
        for counters in (report.host_counters, report.device_counters):
            for name, value in counters.as_dict().items():
                totals[name] = totals.get(name, 0) + value
    block_reads = (totals.get("block_cache_hits", 0)
                   + totals.get("data_block_reads", 0)
                   + totals.get("index_block_reads", 0))
    facts = {f"engine.{name}": totals.get(name, 0)
             for name in ("index_seeks", "records_evaluated", "hash_probes",
                          "bytes_materialized", "flash_bytes_read")}
    facts["engine.batches"] = sum(report.batches for report in reports)
    facts["engine.infeasible_strategies"] = refused
    facts["lsm.block_cache_hit_ratio"] = (
        totals.get("block_cache_hits", 0) / block_reads
        if block_reads else 0)
    facts["engine.report_to_dict_us_p50"] = _to_dict_probe(reports)
    return facts


def _to_dict_probe(reports):
    """Median cost of serialising a report, probed outside the timed ops."""
    samples = []
    for report in reports[:200]:
        start = time.perf_counter_ns()
        json.dumps(report.to_dict(include_timeline=True))
        samples.append((time.perf_counter_ns() - start) / 1e3)
    return percentile(samples, 50) if samples else 0


def plan_cache_facts(runner):
    stats = runner.plan_cache_stats()
    lookups = stats["hits"] + stats["misses"] + stats["invalidations"]
    return {"engine.plan_cache_hit_ratio":
            stats["hits"] / lookups if lookups else 0}
