"""Experiment implementations (paper §5, Experiments 1-6 + ablations).

Each function takes the loaded
:class:`~repro.workloads.loader.Environment` objects its entry in
``repro.__main__``'s experiment table names (none, one or two) and
returns plain dicts/lists: ``python -m repro experiment <name>`` prints
them as JSON, and ``tests/test_paper_shapes.py`` asserts the paper's
shapes on them.
"""

import random
from dataclasses import replace

from repro.bench.parallel import strategy_times, timed
from repro.core.strategy import ExecutionStrategy
from repro.engine.ndp import NDPEngineConfig
from repro.engine.stacks import Stack, StackRunner
from repro.errors import ReproError
from repro.lsm.store import LSMConfig, LSMTree
from repro.query.physical import AccessPath, JoinAlgorithm
from repro.storage.flash import FlashDevice
from repro.storage.machines import HOST_I5
from repro.storage.profiler import HardwareProfiler
from repro.workloads.job_queries import (LISTING2_FULL_PROJECTION,
                                         LISTING2_LIMITED_PROJECTION,
                                         query)

#: Tolerance for calling two strategies "on par" (yellow in Fig 12/13).
ON_PAR_TOLERANCE = 0.05


# ----------------------------------------------------------------------
# Fig 2 — the introductory experiment (Q8c alternatives)
# ----------------------------------------------------------------------
def exp_intro_fig2(env, query_name="8c"):
    """host-only vs H0 vs H3 vs full NDP for the intro query."""
    plan = env.runner.plan(query(query_name))
    mid_split = min(3, plan.table_count - 2)
    rows = {
        "host-only": env.run(plan, Stack.BLK).total_time,
        "H0": env.run(plan, Stack.HYBRID, split_index=0).total_time,
        f"H{mid_split}": env.run(plan, Stack.HYBRID,
                                 split_index=mid_split).total_time,
        "full-ndp": env.run(plan, Stack.NDP).total_time,
    }
    return {"query": query_name, "times": rows}


# ----------------------------------------------------------------------
# Experiment 1 — Fig 11: Q8c/Q17b/Q32b on all stacks, and Table 3
# ----------------------------------------------------------------------
def exp1_stacks_fig11(env, query_names=("8c", "17b", "32b")):
    """BLK / NATIVE / NDP / hybridNDP execution times per query.

    The hybridNDP column uses the planner's own split decision (falling
    back to host-only when the planner says so).
    """
    results = {}
    for name in query_names:
        plan = env.runner.plan(query(name))
        decision = env.decide(plan)
        row = {
            "blk": env.run(plan, Stack.BLK).total_time,
            "native": env.run(plan, Stack.NATIVE).total_time,
            "ndp": env.run(plan, Stack.NDP).total_time,
        }
        if decision.strategy is ExecutionStrategy.HYBRID:
            row["hybridndp"] = env.run(
                plan, Stack.HYBRID,
                split_index=decision.split_index).total_time
        elif decision.strategy is ExecutionStrategy.FULL_NDP:
            row["hybridndp"] = row["ndp"]
        else:
            row["hybridndp"] = row["native"]
        row["decision"] = decision.strategy_name
        results[name] = row
    return results


def exp1_table3(env, query_name="17b"):
    """Correlation of intermediate-result counts and execution time."""
    plan = env.runner.plan(query(query_name))
    rows = []
    for k in range(plan.table_count):
        try:
            report = env.run(plan, Stack.HYBRID, split_index=k)
        except ReproError as error:
            rows.append({"split": f"H{k}", "error": str(error)})
            continue
        rows.append({
            "split": f"H{k}",
            "intermediate_rows": report.intermediate_rows,
            "intermediate_bytes": report.intermediate_bytes,
            "batches": report.batches,
            "time": report.total_time,
            "host_wait": report.host_wait_total,
            "device_stall": report.device_stall_time,
        })
    return {"query": query_name, "rows": rows}


# ----------------------------------------------------------------------
# Experiment 2 — Fig 12: the JOB matrix (``sweep_job_matrix`` runs it)
# ----------------------------------------------------------------------
def classify_matrix(matrix, tolerance=ON_PAR_TOLERANCE):
    """Aggregate a Fig-12 matrix into the paper's summary percentages."""
    total = green = yellow = red = 0
    full_ndp_best = h0_best = 0
    max_speedup = 0.0
    per_query = {}
    for name, times in matrix.items():
        host = times.get("host-only")
        if host is None:
            continue
        total += 1
        strategies = {k: v for k, v in timed(times).items()
                      if k != "host-only"}
        if not strategies:
            red += 1
            per_query[name] = "red"
            continue
        best_name = min(strategies, key=lambda k: strategies[k])
        best = strategies[best_name]
        speedup = host / best
        max_speedup = max(max_speedup, speedup)
        if best < host * (1 - tolerance):
            green += 1
            per_query[name] = "green"
        elif best <= host * (1 + tolerance):
            yellow += 1
            per_query[name] = "yellow"
        else:
            red += 1
            per_query[name] = "red"
        if best_name == "full-ndp":
            full_ndp_best += 1
        elif best_name == "H0":
            h0_best += 1
    def pct(n):
        return 100.0 * n / total if total else 0.0
    return {
        "total": total,
        "green": green, "yellow": yellow, "red": red,
        "green_pct": pct(green), "yellow_pct": pct(yellow),
        "red_pct": pct(red),
        "green_yellow_pct": pct(green + yellow),
        "full_ndp_best_pct": pct(full_ndp_best),
        "h0_best_pct": pct(h0_best),
        "max_speedup": max_speedup,
        "per_query": per_query,
    }


# ----------------------------------------------------------------------
# Experiment 3 — Fig 13: decision quality of the cost model
# ----------------------------------------------------------------------
def exp3_decisions_fig13(env, matrix, tolerance=0.10):
    """Compare the planner's choice against the empirical best strategy.

    ``matrix`` is the Exp-2 output for the same environment.  A decision
    is *best* (green) when it names the fastest strategy, *acceptable*
    (yellow) when its strategy's time is within ``tolerance`` of the
    fastest, and a *miss* (gray) otherwise.
    """
    outcomes = {}
    best = acceptable = miss = 0
    for name, times in matrix.items():
        valid = timed(times)
        if not valid:
            continue
        fastest = min(valid, key=lambda k: valid[k])
        decision = env.decide(query(name))
        if decision.strategy is ExecutionStrategy.HOST_ONLY:
            chosen = "host-only"
        elif decision.strategy is ExecutionStrategy.FULL_NDP:
            chosen = "full-ndp"
        else:
            chosen = f"H{decision.split_index}"
        chosen_time = valid.get(chosen)
        if chosen == fastest:
            best += 1
            outcomes[name] = "best"
        elif (chosen_time is not None
              and chosen_time <= valid[fastest] * (1 + tolerance)):
            acceptable += 1
            outcomes[name] = "acceptable"
        else:
            miss += 1
            outcomes[name] = "miss"
    total = best + acceptable + miss
    def pct(n):
        return 100.0 * n / total if total else 0.0
    return {
        "total": total,
        "best": best, "acceptable": acceptable, "miss": miss,
        "best_pct": pct(best),
        "acceptable_pct": pct(acceptable),
        "suitable_pct": pct(best + acceptable),
        "per_query": outcomes,
    }


# ----------------------------------------------------------------------
# Experiment 4 — Fig 14: the non-indexed join (Listing 2)
# ----------------------------------------------------------------------
def exp4_nonindexed_fig14(env_noindex):
    """NDP vs BLK/NATIVE for the Listing-2 join, both projections."""
    results = {}
    for label, sql in (("limited", LISTING2_LIMITED_PROJECTION),
                       ("full", LISTING2_FULL_PROJECTION)):
        results[label] = {
            "blk": env_noindex.run(sql, Stack.BLK).total_time,
            "native": env_noindex.run(sql, Stack.NATIVE).total_time,
            "ndp": env_noindex.run(sql, Stack.NDP).total_time,
        }
    return results


# ----------------------------------------------------------------------
# Experiment 5 — Fig 15: in-situ secondary-index processing
# ----------------------------------------------------------------------
def force_join(plan, algorithm):
    """A copy of ``plan`` with every join rewritten to one index-less
    algorithm.  Plans are frozen, so ``plan`` itself — often the
    runner's cached plan — cannot change."""
    joins = [replace(entry, join_algorithm=algorithm, index_column=None,
                     access_path=AccessPath.FULL_SCAN)
             for entry in plan.entries[1:]]
    return replace(plan, entries=(plan.entries[0], *joins))


def force_bnlj(plan):
    """A copy of ``plan`` with every join an index-less BNL join."""
    return force_join(plan, JoinAlgorithm.BNLJ)


def exp5_insitu_index_fig15(env_indexed):
    """On-device BNL vs BNLI vs the host, both projections.

    Runs on an environment *with* secondary indexes so the optimizer
    picks BNLJI; the BNL variant runs a forced copy of the same plan.
    """
    results = {}
    for label, sql in (("limited", LISTING2_LIMITED_PROJECTION),
                       ("full", LISTING2_FULL_PROJECTION)):
        plan_bnli = env_indexed.runner.plan(sql)
        plan_bnl = force_bnlj(plan_bnli)
        results[label] = {
            "host": env_indexed.run(plan_bnli, Stack.NATIVE).total_time,
            "ndp_bnl": env_indexed.run(plan_bnl, Stack.NDP).total_time,
            "ndp_bnli": env_indexed.run(plan_bnli, Stack.NDP).total_time,
        }
    return results


# ----------------------------------------------------------------------
# Experiment 6 — Figs 16/17 and Table 4
# ----------------------------------------------------------------------
#: Fig 16's names for the two ends of :func:`strategy_times`' sweep.
_FIG16_LABELS = {"host-only": "block-only", "full-ndp": "ndp-only"}


def exp6_split_sweep_fig16(env, query_name="8c"):
    """Execution time for block-only, H0..Hn, NDP-only; None where the
    strategy is infeasible (a :class:`ReproError`, e.g. device overload),
    ``"budget"`` where its simulation exceeded the event cap."""
    times = strategy_times(env, query_name)
    return {"query": query_name,
            "times": {_FIG16_LABELS.get(name, name): value
                      for name, value in times.items()}}


def exp6_timeline_fig17(env, query_name="8d", split_index=2):
    """The overlapping-execution timeline for one hybrid run."""
    plan = env.runner.plan(query(query_name))
    split_index = min(split_index, plan.table_count - 2)
    report = env.run(plan, Stack.HYBRID, split_index=split_index)
    return {
        "query": query_name,
        "split": f"H{split_index}",
        "total_time": report.total_time,
        "batches": report.batches,
        "host_wait_initial": report.host_wait_initial,
        "host_wait_other": report.host_wait_other,
        "device_stall": report.device_stall_time,
        "timeline": [
            (phase.actor, phase.kind, phase.start, phase.end, phase.label)
            for phase in report.timeline],
    }


def exp6_table4(env, query_name="8d", split_index=2):
    """Host stage shares and device operation shares (Table 4)."""
    plan = env.runner.plan(query(query_name))
    split_index = min(split_index, plan.table_count - 2)
    report = env.run(plan, Stack.HYBRID, split_index=split_index)
    return {
        "query": query_name,
        "split": f"H{split_index}",
        "host_stages": report.host_stage_shares(),
        "device_operations": report.device_operation_shares(),
        "total_time": report.total_time,
    }


# ----------------------------------------------------------------------
# §5 setup checks — CoreMark-style compute gap
# ----------------------------------------------------------------------
def profiler_compute_gap(env):
    """The §5 claim: host ~92343 it/s vs device ~2964 it/s (~31x)."""
    report = HardwareProfiler(env.device, HOST_I5).run()
    return {
        "host_rate": report.host_eval_ops_per_second,
        "device_rate": report.device_eval_ops_per_second,
        "gap": report.compute_gap,
        "pcie_bandwidth": report.pcie_bandwidth,
        "internal_page_rate": report.device_flash_page_rate,
        "external_page_rate": report.host_flash_page_rate,
    }


# ----------------------------------------------------------------------
# Ablations — §5 buffers and joins, §2.2 compaction, §7 device class,
# §2.1 GROUP BY offload
# ----------------------------------------------------------------------
#: Absolute BNL join-buffer sizes of the §5 buffer ablation, largest first.
JOIN_BUFFER_SIZES = (64 * 1024, 8 * 1024, 2 * 1024, 512)


def ablation_join_buffer(env):
    """NDP time of the Listing-2 full projection with every join forced
    to BNL, per absolute device join-buffer size (§5: BNL needs a large
    join buffer, smaller buffers mean more inner re-scans).

    Meant for an index-less environment whose ``movie_link`` is pinned
    large enough that the outer really spans many buffer blocks.
    """
    times = {}
    for size in JOIN_BUFFER_SIZES:
        runner = StackRunner(
            env.catalog, env.database, env.device,
            buffer_scale=env.buffer_scale,
            ndp_config=NDPEngineConfig(buffer_scale=env.buffer_scale,
                                       join_buffer_override=size))
        plan = force_bnlj(runner.plan(LISTING2_FULL_PROJECTION))
        times[size] = runner.run(plan, Stack.NDP).total_time
    return {"times": times}


def _update_stream_tree(compaction):
    """A small LSM tree after 6000 seeded updates of 600 keys."""
    config = LSMConfig(memtable_size=2048, level_base_bytes=8192,
                       sst_target_bytes=4096, block_size=1024,
                       compaction=compaction, tiered_fanout=4)
    tree = LSMTree(config=config, flash=FlashDevice())
    rng = random.Random(11)
    for i in range(6000):
        key = f"key-{rng.randrange(600):05d}".encode()
        tree.put(key, f"value-{i}".encode().ljust(40, b"."))
    tree.freeze_and_flush()
    return tree


def ablation_compaction():
    """Leveled vs tiered compaction under one update stream (§2.2):
    tiered writes less, leveled reads fewer components per GET.  Needs
    no environment."""
    trees = {name: _update_stream_tree(name)
             for name in ("leveled", "tiered")}
    return {
        "strategies": {
            name: {"compactions": tree.compactor.stats.compactions,
                   "bytes_written": tree.compactor.stats.bytes_written,
                   "ssts": tree.levels.sst_count(),
                   "read_amplification":
                       tree.read_amplification(b"key-00007")}
            for name, tree in trees.items()},
        "same_data": (dict(trees["leveled"].scan())
                      == dict(trees["tiered"].scan())),
    }


def ablation_enterprise(consumer_env, enterprise_env, query_name="8c"):
    """The Fig-16 split sweep on the COSMOS+ profile and on an
    enterprise-class device over the same data (§7: a stronger device
    shifts the balance toward offloading)."""
    return {
        "query": query_name,
        "consumer": exp6_split_sweep_fig16(consumer_env, query_name)["times"],
        "enterprise": exp6_split_sweep_fig16(enterprise_env,
                                             query_name)["times"],
    }


def ablation_join_algorithms(env):
    """NDP time of the Listing-2 limited projection with the optimizer's
    joins and with every join forced to BNLJ, GHJ and NLJ (§2.1, §5)."""
    plan = env.runner.plan(LISTING2_LIMITED_PROJECTION)
    times = {"optimizer": env.run(plan, Stack.NDP).total_time}
    for algorithm in (JoinAlgorithm.BNLJ, JoinAlgorithm.GHJ,
                      JoinAlgorithm.NLJ):
        times[algorithm.value] = env.run(force_join(plan, algorithm),
                                         Stack.NDP).total_time
    return {"times": times}


#: In-situ aggregation: movie_info genres reduced to a small group table.
GROUP_BY_SQL = """SELECT mi.info, COUNT(*) AS n
FROM info_type AS it, movie_info AS mi
WHERE it.info = 'genres'
  AND it.id = mi.info_type_id
GROUP BY mi.info"""


def ext_groupby_offload(env):
    """GROUP BY on BLK / NATIVE / NDP (§2.1: a complete NDP pipeline
    ships only the group table across PCIe)."""
    reports = {name: env.run(GROUP_BY_SQL, stack)
               for name, stack in (("blk", Stack.BLK),
                                   ("native", Stack.NATIVE),
                                   ("ndp", Stack.NDP))}
    baseline = reports["blk"].result.sorted_rows()
    return {
        "times": {name: report.total_time
                  for name, report in reports.items()},
        "groups": {name: len(report.result)
                   for name, report in reports.items()},
        "ndp_intermediate_rows": reports["ndp"].intermediate_rows,
        "same_rows": all(report.result.sorted_rows() == baseline
                         for report in reports.values()),
    }
