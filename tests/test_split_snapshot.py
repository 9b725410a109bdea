"""A hybrid split reads one database state (paper §2.1, update-aware NDP).

``prepare_split`` takes one shared-state capture of every table in the
query: the NDP command ships the device tables' families of it, and the
host fragment joins every device batch against the same capture.  A
write that lands on a *host-side* table after the split was prepared —
an insert, an update of a join key, or one that a flush turns into a
compaction — is therefore invisible to the whole split, however late
its batches are joined: its rows equal the host-only rows read before
the write.  Checked for a split driven by hand, through the workload
scheduler and as a 2-device scatter-gather partition, and for the host
fallback of a scheduled offload, which reads the capture its job was
admitted at.  A host-only run given a capture reads it the same way.
On an unchanged tree the pinned host fragment and a pinned host-only
run charge what live ones do, counter for counter, and the command
still ships the device tables' state alone.
"""

from unittest import mock

import pytest

from repro.cluster import DeviceCluster
from repro.context import ExecutionContext
from repro.core.strategy import ExecutionStrategy, HybridDecision
from repro.engine.counters import WorkCounters
from repro.engine.host import _FragmentSession
from repro.engine.pipeline import PipelineExecutor
from repro.engine.stacks import Stack, StackRunner
from repro.errors import PlanError, ReproError
from repro.faults import CommandFaultModel, FaultPlan
from repro.lsm.snapshot import SharedState
from repro.sched import WorkloadScheduler
from repro.sim import SimContext
from repro.storage.topology import Topology
from repro.workloads.job_queries import query
from repro.workloads.loader import build_environment

#: ``t`` is scanned on the device, ``mc`` joined on the host through its
#: ``movie_id`` index; the last conjunct is a host residual that names
#: the device alias ``t``.
_SQL = """SELECT t.id AS movie, mc.id AS mc_id, mc.note AS note
FROM title AS t, movie_companies AS mc
WHERE t.production_year > 2005 AND mc.movie_id = t.id
  AND mc.company_type_id <> t.kind_id"""


@pytest.fixture
def env():
    """A fresh JOB environment: these tests write to it."""
    return build_environment(scale=0.0002, seed=7)


def _host_rows(env):
    return env.runner.run(_SQL, Stack.NATIVE).result.sorted_rows()


def _new_mc(env, count):
    """``count`` new ``movie_companies`` rows that join into the answer."""
    mc = env.catalog.table("movie_companies")
    start = max(row["id"] for row in mc.scan()) + 1
    movies = [row["id"] for row in env.catalog.table("title").scan()
              if (row["production_year"] or 0) > 2005 and row["kind_id"]]
    return [{"id": start + i, "movie_id": movies[i % len(movies)],
             "company_id": 1, "company_type_id": 0, "note": f"late {i}"}
            for i in range(count)]


def _insert(env):
    env.catalog.table("movie_companies").insert(_new_mc(env, 1)[0])


def _update_join_key(env):
    joined = _host_rows(env)[0]["mc_id"]
    env.catalog.table("movie_companies").update(joined, {"movie_id": -1})


def _compact(env):
    mc = env.catalog.table("movie_companies")
    compactor = mc.family.tree.compactor
    compactions = compactor.stats.compactions
    rows = iter(_new_mc(env, 4000))
    while compactor.stats.compactions == compactions:
        for _ in range(50):
            mc.insert(next(rows))
        mc.flush()          # freeze_and_flush of every family of mc


_WRITES = {"insert": _insert, "update join key": _update_join_key,
           "flush and compaction": _compact}


def _writing_before_the_first_batch(env, write):
    """Apply ``write`` once, as the host is about to join the first
    device batch — after every split of the run was prepared."""
    original = _FragmentSession._join_chunk
    pending = [write]

    def join_chunk(self, *args, **kwargs):
        while pending:
            pending.pop()(env)
        return original(self, *args, **kwargs)
    return mock.patch.object(_FragmentSession, "_join_chunk", join_chunk)


def _by_hand(env, write):
    plan = env.runner.plan(_SQL)
    kernel = SimContext.fresh()
    prepared = env.runner.cooperative.prepare_split(plan, 0, kernel=kernel)
    write(env)
    prepared.start(0.0)
    kernel.loop.run()
    report = prepared.finish(kernel.horizon)
    return report.result.sorted_rows()


def _scheduled(env, write):
    force_h0 = HybridDecision(ExecutionStrategy.HYBRID, split_index=0)
    scheduler = WorkloadScheduler(env, queries={"q": _SQL})
    scheduler.submit("q")
    with mock.patch.object(env.planner, "decide",
                           lambda plan, context=None: force_h0), \
            _writing_before_the_first_batch(env, write):
        job, = scheduler.run().jobs
    assert job.placement == "H0"
    return job.report.result.sorted_rows()


def _fallen_back(env, write):
    """A scheduled H0 offload whose command submissions all fail; the
    write lands as its host fallback starts, after admission."""
    force_h0 = HybridDecision(ExecutionStrategy.HYBRID, split_index=0)
    storm = FaultPlan(seed=1, commands=CommandFaultModel(fail_first=8))
    scheduler = WorkloadScheduler(env, ctx=ExecutionContext(faults=storm),
                                  queries={"q": _SQL})
    scheduler.submit("q")
    abandon = WorkloadScheduler._offload_abandoned

    def abandoned(scheduler, job, error):
        write(env)
        abandon(scheduler, job, error)
    with mock.patch.object(env.planner, "decide",
                           lambda plan, context=None: force_h0), \
            mock.patch.object(WorkloadScheduler, "_offload_abandoned",
                              abandoned):
        job, = scheduler.run().jobs
    assert (job.placement, job.report.fallback_from) == ("host-fallback",
                                                         "H0")
    return job.report.result.sorted_rows()


def _scattered(env, write):
    cluster = DeviceCluster(env, n_devices=2)
    with _writing_before_the_first_batch(env, write):
        report = cluster.run(_SQL, split_index=0)
    placements = [part["placement"] for part in report.cluster["partitions"]]
    assert placements == ["H0@d0", "H0@d1"]
    return report.result.sorted_rows()


@pytest.mark.parametrize(
    "driver", [_by_hand, _scheduled, _scattered, _fallen_back],
    ids=["prepare_split", "scheduler", "cluster", "scheduler-fallback"])
def test_split_reads_the_state_it_was_prepared_at(env, driver):
    plan = env.runner.plan(_SQL)
    assert [entry.alias for entry in plan.entries] == ["t", "mc"]
    for name, write in _WRITES.items():
        before = _host_rows(env)
        assert driver(env, write) == before, name
        assert _host_rows(env) != before, f"{name} changed no answer"


def _no_write(env):
    pass


@pytest.mark.parametrize(
    "driver", [_by_hand, _scheduled, _scattered, _fallen_back],
    ids=["prepare_split", "scheduler", "cluster", "scheduler-fallback"])
def test_split_staged_after_a_write_reads_it(env, driver):
    """Captures are reused while a tree's version stands still, so a
    split staged after a write must still see that write."""
    plan = env.runner.plan(_SQL)
    for name, write in _WRITES.items():
        before = driver(env, _no_write)
        ndp = env.runner.ndp_engine
        assert all(a is b for a, b in zip(ndp.capture(plan).families,
                                          ndp.capture(plan).families)), name
        write(env)
        after = _host_rows(env)
        assert after != before, name
        assert driver(env, _no_write) == after, name


def _live_host_fragment(runner, plan, k, prepared):
    """Rows and host counters of split ``k``'s host half, read from the
    live trees: the staged device batches joined by one executor over
    the live catalog, then finalized."""
    cooperative = runner.cooperative
    _device, entries, aliases, _residual, residual = (
        cooperative._split_fragments(plan, k))
    counters = WorkCounters()
    executor = PipelineExecutor(runner.catalog,
                                cooperative.host._pipeline_config(), counters)
    joined = [executor.run(entries, plan.spec.tables,
                           residual_conjuncts=list(residual),
                           input_rows=batch,
                           input_row_bytes=prepared.row_bytes,
                           input_aliases=aliases)[0]
              if entries or residual else batch
              for batch in prepared.batches]
    result = cooperative.host.finalize_fragment(plan, joined, counters)
    return result.sorted_rows(), counters.as_dict()


def _outcome(report):
    return (report.result.rows, report.result.columns,
            report.host_counters.as_dict(), report.total_time)


def _assert_pinned_charges_like_live(runner, sql):
    """Every feasible split's pinned host fragment, and the plan run
    host-only over a capture, returns and charges exactly what the same
    work over the live trees does."""
    plan = runner.plan(sql)
    captured = runner.ndp_engine.capture(plan)
    for stack in (Stack.NATIVE, Stack.BLK):
        live = runner.run(plan, stack)
        assert _outcome(runner.run(plan, stack, captured=captured)) \
            == _outcome(live), stack
        assert live.host_counters.index_seeks
    seeks = 0
    for k in range(plan.table_count - 1):
        kernel = SimContext.fresh()
        try:
            prepared = runner.cooperative.prepare_split(plan, k,
                                                        kernel=kernel)
        except ReproError:
            continue    # the device cannot host this prefix
        try:
            want = _live_host_fragment(runner, plan, k, prepared)
            prepared.start(0.0)
            kernel.loop.run()
            report = prepared.build_report(kernel.horizon)
        finally:
            prepared.release()
        assert (report.result.sorted_rows(),
                report.host_counters.as_dict()) == want, f"H{k}"
        seeks += report.host_counters.index_seeks
    assert seeks


@pytest.mark.parametrize("name", ["1a", "8c", "16b"])
def test_pinned_host_fragment_charges_like_live_on_job(job_env, name):
    _assert_pinned_charges_like_live(job_env.runner, query(name))


#: Device side: ``t`` by its secondary index, then ``mc``; host side:
#: ``t2`` by an indexed join on the primary key.
_MINI_SQL = """SELECT MIN(t.title) AS title, MIN(t2.kind_id) AS kind
FROM title AS t, movie_companies AS mc, title AS t2
WHERE t.production_year < 1990 AND mc.movie_id = t.id
  AND t2.id = mc.movie_id"""


def test_pinned_host_fragment_charges_like_live_past_bloom_filters(
        mini_catalog, kv_db, flash):
    """Every seventh title rewritten and flushed: the newest title SST
    spans the whole id range, so most host seeks pass its fences and are
    turned away by its bloom filter (or not) before the older SST."""
    title = mini_catalog.table("title")
    for i in range(0, 400, 7):
        title.update(i, {"kind_id": 6 - i % 7})
    mini_catalog.flush_all()
    runner = StackRunner(mini_catalog, kv_db,
                         Topology.single(flash=flash).device,
                         buffer_scale=0.001)
    _assert_pinned_charges_like_live(runner, _MINI_SQL)


def test_host_only_run_reads_its_capture(env):
    plan = env.runner.plan(_SQL)
    captured = env.runner.ndp_engine.capture(plan)
    before = env.runner.run(plan, Stack.NATIVE)
    env.catalog.table("movie_companies").insert_many(_new_mc(env, 3))
    pinned = env.runner.run(plan, Stack.NATIVE, captured=captured)
    after = env.runner.run(plan, Stack.NATIVE)
    assert _outcome(pinned) == _outcome(before)
    assert after.result.sorted_rows() != before.result.sorted_rows()
    assert (after.host_counters.as_dict()
            != before.host_counters.as_dict())


def test_only_host_stacks_read_a_capture(env):
    plan = env.runner.plan(_SQL)
    captured = env.runner.ndp_engine.capture(plan)
    with pytest.raises(PlanError, match="host-only"):
        env.runner.run(plan, Stack.HYBRID, split_index=0,
                       captured=captured)
    with pytest.raises(PlanError, match="host-only"):
        env.runner.run(plan, Stack.NDP, captured=captured)


def test_host_residual_may_name_a_device_alias(env):
    plan = env.runner.plan(_SQL)
    _device, _host, _aliases, device_residual, host_residual = (
        env.runner.cooperative._split_fragments(plan, 0))
    assert not device_residual
    assert [conjunct.aliases() for conjunct in host_residual] == [{"t", "mc"}]
    report = env.runner.run(_SQL, Stack.HYBRID, split_index=0)
    assert report.result.sorted_rows() == _host_rows(env)


def test_command_ships_only_the_device_families(env):
    """One capture serves the whole split, but the command's payload —
    and so its setup time — is what the device tables alone ship."""
    ndp = env.runner.ndp_engine
    timing = env.runner.cooperative.timing
    plan = env.runner.plan(_SQL)
    for k in range(plan.table_count):
        device, _host, _aliases, residual, _host_residual = (
            env.runner.cooperative._split_fragments(plan, k))
        command = ndp.prepare_command(plan, device, residual)
        assert command.shared_state == SharedState.capture(env.database, [
            name for entry in device
            for name in env.catalog.table(entry.table_name).column_families()])
        report = env.runner.run(_SQL, Stack.HYBRID, split_index=k)
        assert report.setup_time == timing.command_setup_time(
            command.payload_bytes)
    shipped = ndp.prepare_command(plan, plan.prefix(0), []).shared_state
    assert shipped.payload_bytes < ndp.capture(plan).payload_bytes
