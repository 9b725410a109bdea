"""Columnar executor ≡ row-at-a-time reference, counter for counter.

The vectorized :class:`PipelineExecutor` exchanges
:class:`~repro.columns.ColumnBatch` values but must reproduce the
retained :class:`tests.rowref.RowPipelineExecutor` exactly:
identical result rows (values *and* order) and identical
:class:`WorkCounters` — the invariant that keeps every golden trace,
differential suite and chaos audit byte-identical across the columnar
rewrite (``docs/engine.md``).

Hypothesis samples the sqlgen fuzz corpus (the same seed space the
differential harness sweeps); a JOB sample pins the hand-written
workload too.
"""

import tracemalloc
from itertools import groupby, permutations
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.columns import ColumnBatch
from repro.engine.counters import WorkCounters
from repro.engine.pipeline import PipelineConfig, PipelineExecutor, finalize
from repro.engine.stacks import Stack
from repro.lsm.cache import BlockCache
from repro.lsm.store import ReadTrace
from repro.query.physical import AccessPath
from repro.query.ast import conjuncts
from repro.workloads.job_queries import query as job_query
from repro.workloads.sqlgen import RandomSqlGenerator
from tests.rowref import RowPipelineExecutor, finalize_rows

#: Same corpus seed the differential fuzz harness pins (seed 7); indexes
#: range over the CI sweep's prefix so failures shrink to a corpus slot.
_CORPUS_SEED = 7
_INDEXES = st.integers(min_value=0, max_value=120)

_PROPERTY = settings(max_examples=30, deadline=None,
                     suppress_health_check=[
                         HealthCheck.function_scoped_fixture])


def _run_columnar(catalog, plan, config=PipelineConfig()):
    counters = WorkCounters()
    executor = PipelineExecutor(catalog, config, counters)
    batch, _row_bytes = executor.run(
        plan.entries, plan.spec.tables,
        residual_conjuncts=conjuncts(plan.residual))
    assert isinstance(batch, ColumnBatch)
    rows, columns = finalize(batch, plan.select_items, plan.group_by,
                             counters, limit=plan.limit)
    return rows, columns, counters.as_dict()


def _run_reference(catalog, plan, config=PipelineConfig()):
    counters = WorkCounters()
    executor = RowPipelineExecutor(catalog, config, counters)
    rows, _row_bytes = executor.run(
        plan.entries, plan.spec.tables,
        residual_conjuncts=conjuncts(plan.residual))
    assert isinstance(rows, list)
    out, columns = finalize_rows(rows, plan.select_items, plan.group_by,
                                 counters, limit=plan.limit)
    return out, columns, counters.as_dict()


def _assert_equivalent(env, sql, config=PipelineConfig()):
    plan = env.runner.plan(sql)
    got_rows, got_cols, got_counters = _run_columnar(env.catalog, plan,
                                                     config)
    ref_rows, ref_cols, ref_counters = _run_reference(env.catalog, plan,
                                                      config)
    assert got_cols == ref_cols
    assert got_rows == ref_rows          # values AND order
    assert got_counters == ref_counters  # work accounting, not just rows
    return got_counters


@given(index=_INDEXES)
@_PROPERTY
def test_sqlgen_corpus_equivalence(job_env, index):
    query = RandomSqlGenerator(seed=_CORPUS_SEED).generate_one(index)
    _assert_equivalent(job_env, query.sql)


@pytest.mark.parametrize("name", ["1a", "2a", "3b", "6a", "8c", "16b", "17e"])
def test_job_sample_equivalence(job_env, name):
    _assert_equivalent(job_env, job_query(name))


@pytest.mark.parametrize("where, ids", [
    ("t.id > 3.5 AND t.id < 6", [4, 5]),
    ("t.id >= 3.5 AND t.id <= 5.5", [4, 5]),
    ("t.id > 3 AND t.id < 5.0", [4]),
    ("t.id = 4.0", [4]),
    ("t.id = 4.5", []),
    ("t.id = 'x'", []),
    # A decimal too long for a float parses as inf and bounds nothing.
    ("t.id > 3.5 AND t.id < " + "9" * 400 + ".5 AND t.id < 6", [4, 5]),
])
def test_non_integer_literals_bound_a_driving_primary_key(job_env, where, ids):
    # The scan's bounds are the integers the literals admit; a float
    # used to reach the key encoder and raise SchemaError, a string to
    # raise TypeError.
    sql = f"SELECT t.id FROM title AS t WHERE {where}"
    plan = job_env.runner.plan(sql)
    assert plan.entries[0].access_path is AccessPath.PK_RANGE
    _assert_equivalent(job_env, sql)
    rows, _columns, _counters = _run_columnar(job_env.catalog, plan)
    assert [row["t.id"] for row in rows] == ids
    aggregate = sql.replace("SELECT t.id", "SELECT MIN(t.title)")
    _assert_equivalent(job_env, aggregate)


@pytest.mark.parametrize("terms, ids", [
    (("t.id > 5", "t.id = 3"), []),
    (("t.id = 7", "t.id > 5", "t.id < 9"), [7]),
    (("t.id = 4.0", "t.id <= 4"), [4]),
    (("t.id >= 3", "t.id = 4.5"), []),
])
def test_driving_primary_key_bounds_ignore_conjunct_order(job_env, terms,
                                                          ids):
    # An equality intersects the other bounds on the key, so every order
    # of the conjuncts reads the same range: a later equality used to
    # replace the bounds before it.
    seen = set()
    for order in permutations(terms):
        sql = f"SELECT t.id FROM title AS t WHERE {' AND '.join(order)}"
        assert (job_env.runner.plan(sql).entries[0].access_path
                is AccessPath.PK_RANGE)
        _assert_equivalent(job_env, sql)
        for stack in (Stack.NATIVE, Stack.NDP):
            report = job_env.run(sql, stack)
            counters = (report.host_counters if stack is Stack.NATIVE
                        else report.device_counters)
            rows = sorted(row["t.id"] for row in report.result.rows)
            assert rows == ids
            seen.add((stack, counters.records_evaluated, report.total_time))
    assert len(seen) == 2, seen


def _key_runs(entry, outer_rows):
    """Runs of one non-NULL key among the keys an indexed join seeks."""
    edge = next(edge for edge in entry.join_edges
                if edge.column_of(entry.alias) == entry.index_column)
    alias, column = edge.other(entry.alias)
    keys = (row.get(f"{alias}.{column}") for row in outer_rows)
    return sum(key is not None for key, _run in groupby(keys))


def test_17e_replays_grow_with_key_runs_not_with_seeks(job_env):
    # A complexity guard that counts instead of timing: 17e's joins are
    # keyed on columns of earlier aliases, so their 56 825 seeks arrive
    # in 14 453 runs of one key, counted here from the row engine's
    # inputs.  Behind the device's smallest block cache, where nothing
    # stays resident for long, a run still costs at most two trips
    # through the cache — the second proves the third would repeat it
    # (docs/engine.md).  Behind a cache every trace fits, a seek call
    # sends its replays through the cache at once, apart from the walks
    # that interrupt them.  The counters stay the row engine's.
    join_bnlji = RowPipelineExecutor._join_bnlji
    access_all = BlockCache.access_all
    seek_all = PipelineExecutor._seek_all
    enter = ReadTrace.__enter__

    def counted(config):
        counts = {"runs": 0, "passes": 0, "calls": 0}
        traces = []

        def counting_join_bnlji(self, outer_rows, outer_row_bytes, entry):
            counts["runs"] += _key_runs(entry, outer_rows)
            return join_bnlji(self, outer_rows, outer_row_bytes, entry)

        def counting_access_all(self, touches):
            counts["passes"] += 1
            return access_all(self, touches)

        def counting_seek_all(self, *args, **kwargs):
            counts["calls"] += 1
            return seek_all(self, *args, **kwargs)

        def recording_enter(self):
            traces.append(self)
            return enter(self)

        with mock.patch.object(RowPipelineExecutor, "_join_bnlji",
                               counting_join_bnlji), \
                mock.patch.object(BlockCache, "access_all",
                                  counting_access_all), \
                mock.patch.object(PipelineExecutor, "_seek_all",
                                  counting_seek_all), \
                mock.patch.object(ReadTrace, "__enter__", recording_enter):
            counters = _assert_equivalent(job_env, job_query("17e"), config)
        return counts, traces, counters

    counts, traces, counters = counted(PipelineConfig(block_cache_bytes=8192))
    assert 0 < counts["passes"] <= 2 * counts["runs"]
    assert 2 * counts["runs"] < counters["index_seeks"]
    assert any(trace.fits > 8192 for trace in traces)

    big = 512 * 1024 * 1024
    counts, traces, counters = counted(PipelineConfig(block_cache_bytes=big))
    assert traces and all(trace.fits <= big for trace in traces)
    assert 0 < counts["passes"] <= counts["calls"] + len(traces)
    assert counts["calls"] + len(traces) < counts["runs"]


def test_25a_holds_index_vectors_not_gathered_columns(job_env):
    # A memory guard that counts bytes instead of timing.  Under
    # tracemalloc, 25a host-only here peaked 180.3 MiB above its start
    # when every join stage gathered every carried column of both sides
    # (commit d933530): its ci stage alone held 341 068 rows x 13
    # columns.  Stages now compose one index vector per base and gather
    # a column when something reads it; the peak is 45.4 MiB, most of
    # it the ci seek's 1.84 M matched pairs.  The bound is a third of
    # the eager peak.
    sql = job_query("25a")
    job_env.runner.plan(sql)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        report = job_env.runner.run(sql, Stack.NATIVE)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert report.result.rows
    assert peak <= 180.3 * 2 ** 20 / 3


def test_result_values_are_plain_python(job_env):
    # rows() must hand back pure-Python scalars so sorted_rows()'s
    # type-name sort keys match the row engine's byte for byte.
    plan = job_env.runner.plan(job_query("1a"))
    rows, _columns, _counters = _run_columnar(job_env.catalog, plan)
    for row in rows:
        for value in row.values():
            assert value is None or type(value) in (int, str), type(value)
