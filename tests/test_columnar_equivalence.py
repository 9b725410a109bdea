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

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.columns import ColumnBatch
from repro.engine.counters import WorkCounters
from repro.engine.pipeline import PipelineConfig, PipelineExecutor, finalize
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


def _run_columnar(catalog, plan):
    counters = WorkCounters()
    executor = PipelineExecutor(catalog, PipelineConfig(), counters)
    batch, _row_bytes = executor.run(
        plan.entries, plan.spec.tables,
        residual_conjuncts=conjuncts(plan.residual))
    assert isinstance(batch, ColumnBatch)
    rows, columns = finalize(batch, plan.select_items, plan.group_by,
                             counters, limit=plan.limit)
    return rows, columns, counters.as_dict()


def _run_reference(catalog, plan):
    counters = WorkCounters()
    executor = RowPipelineExecutor(catalog, PipelineConfig(), counters)
    rows, _row_bytes = executor.run(
        plan.entries, plan.spec.tables,
        residual_conjuncts=conjuncts(plan.residual))
    assert isinstance(rows, list)
    out, columns = finalize_rows(rows, plan.select_items, plan.group_by,
                                 counters, limit=plan.limit)
    return out, columns, counters.as_dict()


def _assert_equivalent(env, sql):
    plan = env.runner.plan(sql)
    got_rows, got_cols, got_counters = _run_columnar(env.catalog, plan)
    ref_rows, ref_cols, ref_counters = _run_reference(env.catalog, plan)
    assert got_cols == ref_cols
    assert got_rows == ref_rows          # values AND order
    assert got_counters == ref_counters  # work accounting, not just rows


@given(index=_INDEXES)
@_PROPERTY
def test_sqlgen_corpus_equivalence(job_env, index):
    query = RandomSqlGenerator(seed=_CORPUS_SEED).generate_one(index)
    _assert_equivalent(job_env, query.sql)


@pytest.mark.parametrize("name", ["1a", "2a", "3b", "6a", "8c", "16b", "17e"])
def test_job_sample_equivalence(job_env, name):
    _assert_equivalent(job_env, job_query(name))


def test_result_values_are_plain_python(job_env):
    # rows() must hand back pure-Python scalars so sorted_rows()'s
    # type-name sort keys match the row engine's byte for byte.
    plan = job_env.runner.plan(job_query("1a"))
    rows, _columns, _counters = _run_columnar(job_env.catalog, plan)
    for row in rows:
        for value in row.values():
            assert value is None or type(value) in (int, str), type(value)
