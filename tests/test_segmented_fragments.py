"""Segmented host fragments: one run over many batches is many runs.

A split's host fragment joins a chunk of consecutive device batches in
one ``PipelineExecutor.run(segments=...)``.  For any cut of the input
into segments — empty and one-row segments included, in one chunk or
two after each other — the segmented runs must return, segment by
segment, the rows and :class:`WorkCounters` that one run per segment on
one executor returns, and leave its block cache in the same LRU state
with the same hit and miss counts.  Host caches as small as one data
block make traces overflow the cache (``Replays`` rule 2) and evict
between segments.  Covered: indexed joins (BNLJI), block nested loops,
grace hash and nested loop joins through forced plans, a scan join's
inner read through a secondary index on a constant, and a host residual
that names a device alias.  A split joins a chunk of batches per run,
when the chunk's first batch is consumed, so a split cancelled before
that joins nothing.
"""

from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench.experiments import force_join
from repro.engine.counters import WorkCounters
from repro.engine.host import _FragmentSession
from repro.engine.pipeline import PipelineConfig, PipelineExecutor
from repro.errors import ExecutionError
from repro.query.ast import conjuncts
from repro.query.physical import AccessPath, JoinAlgorithm
from repro.sim import SimContext
from repro.workloads.job_queries import query

#: ``t`` is the device side; the last conjunct is a host residual that
#: names it.
_RESIDUAL_SQL = """SELECT t.id AS movie, mc.id AS mc_id, mc.note AS note
FROM title AS t, movie_companies AS mc
WHERE t.production_year > 2005 AND mc.movie_id = t.id
  AND mc.company_type_id <> t.kind_id"""

#: ``mc`` is read through its ``company_type_id`` index on a constant and
#: joined to ``t`` by a block nested loop (see :func:`_constant_inner`).
_CONSTANT_SQL = """SELECT t.title AS title, mc.note AS note
FROM title AS t, movie_companies AS mc
WHERE t.kind_id = 1 AND mc.company_type_id = 2 AND t.id = mc.movie_id"""


def _constant_inner(plan):
    """``t`` scanned, then ``mc`` sought on its constant per pass."""
    t, mc = plan.entry("t"), plan.entry("mc")
    edges = tuple(edge for entry in plan.entries for edge in entry.join_edges)
    return replace(plan, entries=(
        replace(t, access_path=AccessPath.FULL_SCAN, index_column=None,
                join_edges=(), join_algorithm=None),
        replace(mc, access_path=AccessPath.SECONDARY_LOOKUP,
                index_column="company_type_id", join_edges=edges,
                join_algorithm=JoinAlgorithm.BNLJ)))


#: name -> (SQL, plan rewrite, device tables).
_CASES = {
    "8c BNLJI": (query("8c"), None, 2),
    "1a BNLJI": (query("1a"), None, 2),
    "1a BNLJ": (query("1a"), JoinAlgorithm.BNLJ, 2),
    "1a GHJ": (query("1a"), JoinAlgorithm.GHJ, 2),
    "1a NLJ": (query("1a"), JoinAlgorithm.NLJ, 3),
    "host residual": (_RESIDUAL_SQL, None, 1),
    "constant inner": (_CONSTANT_SQL, _constant_inner, 1),
}


def _fragment(env, name):
    """``(plan, host entries, device aliases, host residual, input
    rows, row bytes)`` of one case's split."""
    sql, rewrite, device = _CASES[name]
    plan = env.runner.plan(sql)
    if isinstance(rewrite, JoinAlgorithm):
        plan = force_join(plan, rewrite)
    elif rewrite is not None:
        plan = rewrite(plan)
    aliases = {entry.alias for entry in plan.entries[:device]}
    executor = PipelineExecutor(env.catalog, PipelineConfig(),
                                WorkCounters())
    residual = conjuncts(plan.residual)
    rows, row_bytes = executor.run(
        plan.entries[:device], plan.spec.tables,
        residual_conjuncts=[c for c in residual if c.aliases() <= aliases])
    host_residual = [c for c in residual if not c.aliases() <= aliases]
    return (plan, plan.entries[device:], sorted(aliases), host_residual,
            rows, row_bytes)


_FRAGMENTS = {}


def _cached_fragment(env, name):
    if name not in _FRAGMENTS:
        _FRAGMENTS[name] = _fragment(env, name)
    return _FRAGMENTS[name]


def _offsets(lengths, total):
    offsets = [0]
    for length in lengths:
        offsets.append(min(total, offsets[-1] + length))
    return offsets


def _cache_facts(executor):
    cache = executor.block_cache
    if cache is None:
        return None
    return cache.lru_state(), cache.hits, cache.misses


@pytest.mark.parametrize("name", sorted(_CASES))
@given(lengths=st.lists(st.one_of(st.integers(0, 3), st.integers(0, 40)),
                        min_size=1, max_size=24),
       cut=st.integers(0, 24),
       join_buffer=st.sampled_from([512, 4096, 1 << 20]),
       cache_bytes=st.sampled_from([0, 4096, 16384, 1 << 20]))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_segmented_runs_equal_one_run_per_segment(
        job_env, name, lengths, cut, join_buffer, cache_bytes):
    plan, entries, aliases, residual, rows, row_bytes = _cached_fragment(
        job_env, name)
    offsets = _offsets(lengths, len(rows))
    config = PipelineConfig(join_buffer_bytes=join_buffer,
                            block_cache_bytes=cache_bytes)

    def run(executor, lo, hi, segments=None):
        return executor.run(
            entries, plan.spec.tables, residual_conjuncts=residual,
            input_rows=rows[offsets[lo]:offsets[hi]],
            input_row_bytes=row_bytes, input_aliases=aliases,
            segments=segments)

    counters = WorkCounters()
    single = PipelineExecutor(job_env.catalog, config, counters)
    want = []
    for i in range(len(lengths)):
        before = counters.copy()
        batch, _ = run(single, i, i + 1)
        want.append((batch.rows(), counters.delta_since(before).as_dict()))

    segmented = PipelineExecutor(job_env.catalog, config, WorkCounters())
    got = []
    cut = min(cut, len(lengths))
    for lo, hi in ((0, cut), (cut, len(lengths))):
        if lo == hi:
            continue
        parts, _ = run(segmented, lo, hi, segments=[
            offset - offsets[lo] for offset in offsets[lo:hi + 1]])
        got.extend((batch.rows(), work.as_dict()) for batch, work in parts)

    assert got == want
    assert _cache_facts(segmented) == _cache_facts(single)
    assert segmented.counters == WorkCounters()


def test_segments_must_cover_the_input(job_env):
    plan, entries, aliases, residual, rows, row_bytes = _cached_fragment(
        job_env, "1a BNLJI")
    executor = PipelineExecutor(job_env.catalog, PipelineConfig(),
                                WorkCounters())
    for segments in ([0], [0, len(rows) + 1], [1, len(rows)],
                     [0, 2, 1, len(rows)]):
        with pytest.raises(ExecutionError, match="segments"):
            executor.run(entries, plan.spec.tables,
                         residual_conjuncts=residual, input_rows=rows,
                         input_row_bytes=row_bytes, input_aliases=aliases,
                         segments=segments)


def _join_chunk_calls(env, cancel_at=None):
    """The first batch of every chunk split 8c H5's host joins, and the
    split's batch count; ``cancel_at`` cancels the run then."""
    plan = env.runner.plan(query("8c"))
    kernel = SimContext.fresh()
    prepared = env.runner.cooperative.prepare_split(plan, 5, kernel=kernel)
    calls = []
    original = _FragmentSession._join_chunk

    def join_chunk(self, first):
        calls.append(first)
        return original(self, first)
    try:
        with mock.patch.object(_FragmentSession, "_join_chunk", join_chunk):
            prepared.start(0.0)
            if cancel_at is not None:
                kernel.loop.schedule_at(
                    cancel_at, lambda: prepared.cancel(cancel_at))
            kernel.loop.run()
    finally:
        prepared.release()
    return calls, prepared.n_batches


def test_the_host_joins_a_chunk_of_batches_per_run(job_env):
    calls, batches = _join_chunk_calls(job_env)
    assert calls[0] == 0 and calls == sorted(set(calls))
    assert batches > 100 and len(calls) < batches / 100


def test_a_split_cancelled_before_its_first_consume_joins_nothing(job_env):
    calls, _batches = _join_chunk_calls(job_env, cancel_at=0.0)
    assert calls == []
