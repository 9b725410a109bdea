"""Property tests for the random SQL workload generator.

Two contracts pinned with Hypothesis over the generator's own seed
space:

* parse → render → parse is a fixpoint: the AST survives a round trip
  through the canonical renderer, and rendering is idempotent.
* every generated query plans without error and the hybrid planner
  decides on it — under both the host-only and hybrid regimes.

Plus the seeding contract the replay tooling depends on: query ``i`` of
seed ``s`` is a pure function of ``(s, i)``, independent of corpus size.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ExecutionStrategy
from repro.query.parser import parse_query
from repro.query.render import render_query
from repro.workloads.imdb_schema import JOB_TABLE_NAMES
from repro.workloads.sqlgen import (FK_EDGES, RandomSqlGenerator,
                                    SqlGenConfig, TABLE_ALIASES,
                                    generate_corpus)

#: Hypothesis draws (seed, index) pairs; each resolves to one generated
#: query, so shrinking walks back to the smallest failing pair.
_SEEDS = st.integers(min_value=0, max_value=10_000)
_INDEXES = st.integers(min_value=0, max_value=500)

_FAST = settings(max_examples=60, deadline=None)
_WITH_ENV = settings(max_examples=25, deadline=None,
                     suppress_health_check=[
                         HealthCheck.function_scoped_fixture])


@given(seed=_SEEDS, index=_INDEXES)
@_FAST
def test_parse_render_parse_is_fixpoint(seed, index):
    query = RandomSqlGenerator(seed=seed).generate_one(index)
    parsed = parse_query(query.sql)
    rendered = render_query(parsed)
    assert parse_query(rendered) == parsed
    # Rendering the re-parsed AST is byte-stable (idempotence).
    assert render_query(parse_query(rendered)) == rendered


@given(seed=_SEEDS, index=_INDEXES)
@_FAST
def test_generated_query_is_deterministic_and_well_formed(seed, index):
    generator = RandomSqlGenerator(seed=seed)
    query = generator.generate_one(index)
    assert query.sql == RandomSqlGenerator(seed=seed).generate_one(index).sql
    assert query.name == f"gen{seed}-{index}"
    # Joined tables are unique, known, and FK-connected.
    assert len(set(query.tables)) == len(query.tables)
    assert set(query.tables) <= set(JOB_TABLE_NAMES)


@given(seed=st.integers(min_value=0, max_value=200),
       index=st.integers(min_value=0, max_value=100))
@_WITH_ENV
def test_generated_query_plans_and_decides(job_env, seed, index):
    query = RandomSqlGenerator(seed=seed).generate_one(index)
    plan = job_env.runner.plan(query.sql)
    assert plan.table_count == len(query.tables)
    decision = job_env.decide(query.sql)
    assert decision.strategy in (ExecutionStrategy.HOST_ONLY,
                                 ExecutionStrategy.HYBRID,
                                 ExecutionStrategy.FULL_NDP)
    # Full NDP carries the deepest split: the scheduler and the cluster
    # run it as H(n-1) with a host epilogue.
    if decision.strategy is ExecutionStrategy.FULL_NDP:
        assert decision.split_index == plan.table_count - 1


def test_corpus_is_prefix_stable():
    long = generate_corpus(seed=7, count=40)
    short = generate_corpus(seed=7, count=10)
    assert [q.sql for q in short] == [q.sql for q in long[:10]]


def test_different_seeds_differ():
    a = [q.sql for q in generate_corpus(seed=1, count=10)]
    b = [q.sql for q in generate_corpus(seed=2, count=10)]
    assert a != b


def test_table_metadata_is_consistent():
    assert set(TABLE_ALIASES) == set(JOB_TABLE_NAMES)
    assert len(set(TABLE_ALIASES.values())) == len(TABLE_ALIASES)
    for edge in FK_EDGES:
        assert edge.child in TABLE_ALIASES
        assert edge.parent in TABLE_ALIASES


def test_config_validation():
    from repro.errors import ReproError
    with pytest.raises(ReproError):
        SqlGenConfig(min_tables=5, max_tables=2)
    with pytest.raises(ReproError):
        SqlGenConfig(min_predicates=9, max_predicates=1)
    with pytest.raises(ReproError):
        SqlGenConfig(max_tables=99)


def test_generated_queries_avoid_limit_and_star():
    # LIMIT is order-dependent under scatter-gather and star only adds
    # width: the generator must emit neither (documented contract).
    for query in generate_corpus(seed=3, count=30):
        assert "LIMIT" not in query.sql
        assert "SELECT *" not in query.sql
