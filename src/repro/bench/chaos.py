"""Chaos harness: JOB queries under deterministic fault scenarios.

Each named scenario is a seeded :class:`~repro.faults.FaultPlan` probing
one degradation path — transient command NACKs that retry, a command
storm that exhausts the retries and forces the mid-query host fallback,
flash ECC-retry latency, PCIe lane down-shifts, device DRAM pressure
(admission control waits), and NDP-core brownouts (device stalls).

A chaos run executes the query three times: fault-free on the host
(the correctness baseline), fault-free hybrid at the chosen split (the
timing reference), and hybrid under the scenario's plan.  It then checks
the paper-level robustness contract: the degraded run returns *exactly*
the baseline rows, within a bounded slowdown — graceful degradation,
never wrong answers.  Everything is seeded, so a chaos matrix is
byte-for-byte reproducible.
"""

import os
from dataclasses import replace

from repro.cluster import ClusterFaultPlan, DeviceCluster, SpeculationPolicy
from repro.context import ExecutionContext
from repro.core.planner import fit_to_device
from repro.engine.stacks import Stack
from repro.errors import (DeviceOverloadError, EventBudgetExceeded,
                          OffloadError, ReproError)
from repro.faults import (CommandFaultModel, CoreFaultModel, DramFaultModel,
                          FaultPlan, FaultWindow, FlashFaultModel,
                          LinkFaultModel, SlowDeviceModel)
from repro.sched import WorkloadScheduler
from repro.sim import Tracer
from repro.workloads.job_queries import query
from repro.workloads.sqlgen import RandomSqlGenerator

#: Degraded runs must finish within ``LIMIT * reference + SLACK`` seconds,
#: where the reference is the slower of the fault-free host baseline and
#: the fault-free hybrid run.  The factor is deliberately loose — chaos
#: verifies *bounded* degradation, not performance.
SLOWDOWN_LIMIT = 10.0
SLOWDOWN_SLACK = 0.25

#: {scenario name: one-line description} — the chaos catalogue.
SCENARIOS = {
    "transient-commands": ("first two NDP command submissions NACKed; "
                           "retries with backoff succeed"),
    "command-storm": ("every submission NACKed; retries exhaust and the "
                      "query falls back to host-only execution"),
    "flash-ecc": "flash read pages need ECC retries (latency only)",
    "link-degraded": "PCIe lane down-shift window; transfers run 4x slower",
    "dram-pressure": ("device DRAM pressure at t=0; admission control "
                      "waits for the window instead of overloading"),
    "core-brownout": "NDP core unavailability windows; device stalls",
    "perfect-storm": "all fault models at once, mildly",
}

#: Scale-out robustness scenarios (stragglers, cascading failures,
#: deadlines).  These run a :class:`~repro.cluster.DeviceCluster` or a
#: :class:`~repro.sched.WorkloadScheduler` instead of a single device,
#: so they are selected by name (``--scenario``), never part of the
#: default single-device matrix.
ROBUSTNESS_SCENARIOS = {
    "straggler_device": ("4-device scatter-gather with one slow device; "
                         "speculation keeps the makespan within "
                         "1.5x fault-free"),
    "double_device_failure": ("2-device scatter-gather where both devices "
                              "fail; partitions cascade through survivors "
                              "to correct host-fallback rows"),
    "deadline_shedding": ("deadline-bounded workload; queued jobs past "
                          "their budget are shed with exact reservation "
                          "accounting"),
}

#: Makespan bound the straggler scenario must meet via speculation.
STRAGGLER_LIMIT = 1.5


def scenario_plan(name, seed=0):
    """The seeded :class:`FaultPlan` for a named chaos scenario."""
    if name == "transient-commands":
        return FaultPlan(seed=seed,
                         commands=CommandFaultModel(fail_first=2))
    if name == "command-storm":
        # More deterministic failures than the policy has attempts
        # (1 + max_retries), so the offload always abandons.
        return FaultPlan(seed=seed,
                         commands=CommandFaultModel(fail_first=8))
    if name == "flash-ecc":
        # High per-page probability so the scenario still injects on the
        # tiny CI scales, where reads are only a handful of pages.
        return FaultPlan(seed=seed,
                         flash=FlashFaultModel(probability=0.5))
    if name == "link-degraded":
        return FaultPlan(seed=seed,
                         link=LinkFaultModel(
                             windows=(FaultWindow(0.0, 0.005),),
                             slowdown=4.0))
    if name == "dram-pressure":
        # Shrink past any budget for 1 ms: admission always waits the
        # full window, comfortably inside the 50 ms admission timeout.
        return FaultPlan(seed=seed,
                         dram=DramFaultModel(
                             windows=(FaultWindow(0.0, 0.001),),
                             shrink_bytes=1 << 40))
    if name == "core-brownout":
        return FaultPlan(seed=seed,
                         core=CoreFaultModel(
                             windows=(FaultWindow(0.0, 0.002),
                                      FaultWindow(0.004, 0.005))))
    if name == "perfect-storm":
        return FaultPlan(
            seed=seed,
            commands=CommandFaultModel(fail_first=1),
            flash=FlashFaultModel(probability=0.01),
            link=LinkFaultModel(windows=(FaultWindow(0.0, 0.002),),
                                slowdown=2.0),
            core=CoreFaultModel(windows=(FaultWindow(0.001, 0.002),)),
        )
    raise ReproError(
        f"unknown chaos scenario {name!r}; "
        f"known: {', '.join(sorted(SCENARIOS))}")


def default_split(runner, plan):
    """The split point chaos runs degrade: the deepest offloadable Hk
    at or below the middle of the pipeline."""
    return fit_to_device(runner.ndp_engine.device, plan,
                         plan.table_count // 2)


def generated_queries(count, seed=0):
    """``{name: sql}`` for ``count`` random sqlgen queries.

    Names are ``gen0..gen<count-1>``; the corpus is prefix-stable in
    ``seed`` (:class:`~repro.workloads.sqlgen.RandomSqlGenerator`), so
    the same seed always chaoses the same queries.
    """
    generator = RandomSqlGenerator(seed=seed)
    return {f"gen{q.index}": q.sql for q in generator.generate(count)}


def _check_scenarios(names):
    """Reject a scenario name that is in neither catalogue."""
    unknown = sorted(set(names) - set(SCENARIOS) - set(ROBUSTNESS_SCENARIOS))
    if unknown:
        raise ReproError(
            f"unknown chaos scenario {', '.join(unknown)}; known: "
            f"{', '.join(sorted(SCENARIOS))}; scale-out: "
            f"{', '.join(sorted(ROBUSTNESS_SCENARIOS))}")


def _slowdown_bound(baseline, reference):
    return (SLOWDOWN_LIMIT * max(baseline.total_time, reference.total_time)
            + SLOWDOWN_SLACK)


def _cell(query_name, scenario, seed, split, baseline, reference_time,
          faulted=None, bound=None, accepted=True, **extras):
    """One chaos cell: the 17 keys every scenario reports, then ``extras``.

    With the degraded run's report (``faulted``) the verdict is computed
    here: its rows equal ``baseline``'s, its time is within ``bound``,
    and the scenario's own criterion ``accepted`` holds.  A scenario
    without a single degraded report (an infeasible pipeline, a
    scheduled workload) leaves ``faulted`` out and overrides the neutral
    fields through ``extras``.
    """
    cell = {
        "query": query_name,
        "scenario": scenario,
        "seed": seed,
        "split_index": split,
        "strategy": None,
        "rows": None,
        "rows_match": True,
        "bounded": True,
        "ok": True,
        "baseline_time": baseline.total_time,
        "reference_time": reference_time,
        "faulted_time": 0.0,
        "fallback_from": None,
        "retries": 0,
        "faults_injected": {},
        "wasted_device_time": 0.0,
        "admission_wait_time": 0.0,
    }
    if faulted is not None:
        rows_match = (faulted.result.sorted_rows()
                      == baseline.result.sorted_rows())
        bounded = faulted.total_time <= bound
        cell.update(
            strategy=faulted.strategy,
            rows=len(faulted.result),
            rows_match=rows_match,
            bounded=bounded,
            ok=rows_match and bounded and accepted,
            faulted_time=faulted.total_time,
            fallback_from=faulted.fallback_from,
            retries=faulted.retries,
            faults_injected=dict(faulted.faults_injected),
            wasted_device_time=faulted.wasted_device_time,
            admission_wait_time=faulted.admission_wait_time)
    cell.update(extras)
    return cell


def run_chaos(env, query_name, scenario, seed=0, ctx=None, queries=None):
    """Run one query under one chaos scenario.

    ``query_name`` resolves through the optional ``queries`` mapping
    (``{name: sql}``, e.g. from :func:`generated_queries`) first, then
    the JOB catalog.  ``ctx`` (an
    :class:`~repro.context.ExecutionContext`) supplies the degraded
    run's tracer/retry policy; its fault plan is replaced by the
    scenario's.  Returns a plain summary dict: the three run times,
    the split point, whether the degraded rows match the fault-free host
    baseline (``rows_match``), whether the slowdown stayed bounded
    (``bounded``), and the degraded report's resilience fields.

    A generated query whose pipeline cannot be offloaded or reserved at
    this scale is reported as ``infeasible`` (and ``ok``) rather than a
    failure — mirroring the differential fuzzer's classification — and
    one whose simulation exceeds the event loop's cap as ``budget``.
    """
    _check_scenarios([scenario])
    ctx = ExecutionContext.coerce(ctx)
    if scenario in ROBUSTNESS_SCENARIOS:
        return run_robustness_chaos(env, query_name, scenario, seed=seed,
                                    ctx=ctx, queries=queries)
    sql = (queries[query_name] if queries and query_name in queries
           else query(query_name))
    plan = env.runner.plan(sql)
    split = default_split(env.runner, plan)
    baseline = env.run(plan, Stack.NATIVE)
    faults = scenario_plan(scenario, seed=seed)
    try:
        reference = env.run(plan, Stack.HYBRID, split_index=split)
        faulted = env.run(plan, Stack.HYBRID, split_index=split,
                          ctx=replace(ctx, faults=faults))
    except (DeviceOverloadError, OffloadError) as error:
        return _cell(query_name, scenario, seed, split, baseline, 0.0,
                     strategy="infeasible", rows=len(baseline.result),
                     infeasible=True, error=str(error))
    except EventBudgetExceeded as error:
        return _cell(query_name, scenario, seed, split, baseline, 0.0,
                     strategy="budget", rows=len(baseline.result),
                     budget=True, error=str(error))
    return _cell(query_name, scenario, seed, split, baseline,
                 reference.total_time, faulted,
                 bound=_slowdown_bound(baseline, reference))


def run_robustness_chaos(env, query_name, scenario, seed=0, ctx=None,
                         queries=None):
    """Run one scale-out robustness scenario (see
    :data:`ROBUSTNESS_SCENARIOS`).

    Every scenario checks the same contract as single-device chaos —
    exactly the fault-free rows, bounded cost — against its own
    acceptance criterion: speculation bounds the straggler makespan,
    cascading failures end in correct host-fallback rows, deadlines shed
    with zero leaked reservations.  All inputs are seeded, so the
    summary dict is byte-for-byte reproducible.
    """
    ctx = ExecutionContext.coerce(ctx)
    sql = (queries[query_name] if queries and query_name in queries
           else query(query_name))
    if scenario == "straggler_device":
        return _run_straggler(env, query_name, sql, seed, ctx)
    if scenario == "double_device_failure":
        return _run_double_failure(env, query_name, sql, seed, ctx)
    if scenario == "deadline_shedding":
        return _run_deadline_shedding(env, query_name, sql, seed, ctx)
    raise ReproError(
        f"unknown robustness scenario {scenario!r}; "
        f"known: {', '.join(sorted(ROBUSTNESS_SCENARIOS))}")


def _run_straggler(env, query_name, sql, seed, ctx):
    """One slow device in a 4-device scatter-gather; speculation must
    keep the makespan within ``STRAGGLER_LIMIT`` of fault-free.

    The split is pinned shallow (H0): the device fragment is small
    against the host-serialized work, so a backup clone started around
    the median completion still lands near the fault-free makespan —
    with a deep split even a perfect clone could not beat ~2x.
    """
    plan = env.runner.plan(sql)
    split = 0
    baseline = env.run(plan, Stack.NATIVE)
    cluster = DeviceCluster(env, n_devices=4,
                            speculation=SpeculationPolicy(factor=1.5))
    reference = cluster.run(plan, split_index=split)
    faults = ClusterFaultPlan(plans={0: FaultPlan(
        seed=seed,
        slow=SlowDeviceModel(windows=(FaultWindow(0.0, 3600.0),),
                             slowdown=50.0))})
    faulted = cluster.run(plan, ctx=replace(ctx, faults=faults),
                          split_index=split)
    speculation = faulted.cluster["speculation"]
    return _cell(query_name, "straggler_device", seed, split, baseline,
                 reference.total_time, faulted,
                 bound=STRAGGLER_LIMIT * reference.total_time,
                 accepted=speculation["clones"] >= 1,
                 speculation=speculation,
                 placements=[part["placement"]
                             for part in faulted.cluster["partitions"]])


def _run_double_failure(env, query_name, sql, seed, ctx):
    """Both devices of a 2-device cluster storm out; the iterative
    cascade must end in correct host-fallback rows, never an error."""
    plan = env.runner.plan(sql)
    split = default_split(env.runner, plan)
    baseline = env.run(plan, Stack.NATIVE)
    cluster = DeviceCluster(env, n_devices=2)
    reference = cluster.run(plan, split_index=split)
    storm = CommandFaultModel(fail_first=64)
    faults = ClusterFaultPlan(plans={
        0: FaultPlan(seed=seed, commands=storm),
        1: FaultPlan(seed=seed + 1, commands=storm),
    })
    faulted = cluster.run(plan, ctx=replace(ctx, faults=faults),
                          split_index=split)
    placements = [part["placement"]
                  for part in faulted.cluster["partitions"]]
    degraded = (faulted.cluster["failed_devices"] == [0, 1]
                and all(p in ("host-fallback", "empty")
                        for p in placements))
    return _cell(query_name, "double_device_failure", seed, split,
                 baseline, reference.total_time, faulted,
                 bound=_slowdown_bound(baseline, reference),
                 accepted=degraded,
                 failed_devices=faulted.cluster["failed_devices"],
                 placements=placements)


def _run_deadline_shedding(env, query_name, sql, seed, ctx):
    """A deadline-bounded workload: six copies of one query arrive at
    once; ``max_inflight=2`` queues the tail, whose tight budgets
    (half the serial time) expire before any completion frees a slot —
    so the head completes, the tail is shed, and every reservation is
    provably released."""
    plan = env.runner.plan(sql)
    serial = env.run(plan, Stack.NATIVE)
    loose = 20.0 * serial.total_time
    tight = 0.5 * serial.total_time
    scheduler = WorkloadScheduler(env, ctx=ctx, max_inflight=2,
                                  queries={query_name: sql})
    for i in range(6):
        scheduler.submit(query_name, at=0.0,
                         deadline=loose if i < 3 else tight)
    result = scheduler.run()
    completed = result.completed()
    shed = result.shed()
    rows_match = all(
        job.report.result.sorted_rows() == serial.result.sorted_rows()
        for job in completed if job.report is not None)
    leaked = sum(device.reserved_bytes for device in scheduler.devices)
    ok = (rows_match and len(completed) >= 1 and len(shed) >= 1
          and leaked == 0
          and len(completed) + len(shed) == len(result.jobs))
    return _cell(query_name, "deadline_shedding", seed, None, serial,
                 serial.total_time,
                 strategy="workload",
                 rows=(len(completed[0].report.result)
                       if completed and completed[0].report is not None
                       else None),
                 rows_match=rows_match,
                 bounded=leaked == 0,
                 ok=ok,
                 faulted_time=result.makespan,
                 deadline=tight,
                 completed_jobs=len(completed),
                 shed_jobs=len(shed),
                 leaked_reserved_bytes=leaked,
                 placements=result.placements())


def chaos_matrix(env, query_names, scenarios=None, seed=0, trace_dir=None,
                 queries=None):
    """``{query: {scenario: summary}}`` over a query/scenario grid.

    Queries and scenarios run in sorted order, so two matrices with the
    same environment and seed serialize to identical JSON.  Scenario
    names may mix the single-device catalogue (:data:`SCENARIOS`) and
    the scale-out one (:data:`ROBUSTNESS_SCENARIOS`); the default is
    the single-device catalogue only, and an unknown name is rejected
    before anything runs.  ``queries`` is an optional ``{name: sql}``
    mapping (e.g. :func:`generated_queries`) consulted before the JOB
    catalog, so generated workloads chaos exactly like named queries.
    With ``trace_dir`` set each degraded run is traced and written as
    ``<trace_dir>/<query>-<scenario>.json`` (fault and speculation
    instants included).
    """
    names = sorted(scenarios) if scenarios else sorted(SCENARIOS)
    _check_scenarios(names)
    if trace_dir:
        os.makedirs(trace_dir, exist_ok=True)
    matrix = {}
    for query_name in sorted(query_names):
        row = {}
        for scenario in names:
            tracer = Tracer() if trace_dir else None
            row[scenario] = run_chaos(env, query_name, scenario, seed=seed,
                                      ctx=ExecutionContext(tracer=tracer),
                                      queries=queries)
            if trace_dir:
                tracer.write(os.path.join(
                    trace_dir, f"{query_name}-{scenario}.json"))
        matrix[query_name] = row
    return matrix
