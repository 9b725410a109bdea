"""Sampled selectivity: the columnar estimator against the row reference.

:func:`~repro.query.join_order.sampled_selectivity` evaluates a local
filter with the engine's ``eval_mask`` over a table's columnar sample;
:func:`tests.rowref.row_sampled_selectivity` is the row-at-a-time
estimator it replaced.  The two must agree to float equality on every
filtered alias of the JOB and sqlgen corpora and on random filters over
NULL-bearing columns; planning must run no ``Expr.eval``, build each
sampled column once, and see every reservoir change.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.stacks import StackRunner
from repro.query import join_order
from repro.query.ast import (And, Between, ColumnRef, Comparison, InList,
                             IsNull, Like, Literal, Not, Or)
from repro.query.join_order import sampled_selectivity
from repro.query.logical import analyze
from repro.query.optimizer import build_plan
from repro.query.parser import parse_query
from repro.relational.statistics import TableStatistics
from repro.workloads.job_queries import all_queries
from repro.workloads.loader import build_environment
from repro.workloads.sqlgen import generate_corpus
from tests.rowref import row_sampled_selectivity


def _corpus():
    named = list(all_queries().items())
    for seed in range(3):
        named += [(generated.name, generated.sql)
                  for generated in generate_corpus(seed, 200)]
    return named


def _filtered_aliases(catalog, sql):
    """``(alias, statistics, local filter)`` of every filtered alias."""
    spec = analyze(parse_query(sql), catalog, sql=sql)
    for alias in spec.aliases:
        expr = spec.filter_for(alias)
        if expr is not None:
            yield (alias, catalog.table(spec.tables[alias]).statistics,
                   expr)


def test_corpus_estimates_equal_row_reference(job_env):
    checked = 0
    for name, sql in _corpus():
        for alias, stats, expr in _filtered_aliases(job_env.catalog, sql):
            assert (sampled_selectivity(stats, alias, expr)
                    == row_sampled_selectivity(stats, alias, expr)), \
                (name, alias, str(expr))
            checked += 1
    assert checked > 1500


# ----------------------------------------------------------------------
# Random filters over NULL-bearing columns
# ----------------------------------------------------------------------
#: alias -> (table, INT columns, CHAR columns) of the mini catalog.
_TABLES = {
    "t": ("title", ("id", "production_year", "kind_id"), ("title",)),
    "mc": ("movie_companies", ("id", "movie_id", "company_type_id"),
           ("note",)),
    "ct": ("company_type", ("id",), ("kind",)),
}
_INTS = st.one_of(st.integers(-2, 10), st.integers(1945, 2025),
                  st.integers(0, 1300))
_STRS = st.one_of(
    st.sampled_from(["Movie 7", "Movie 42", "(presents)", "(co-production)",
                     "kind2", "production companies", "", "M"]),
    st.text(alphabet="Mov ie0123(pk)", max_size=10))
_PATTERNS = st.text(alphabet="Mov ie0123(pk)%_", max_size=8)


def _add_null_rows(catalog):
    """NULLs in every nullable column, entering each table's sample."""
    title = catalog.table("title")
    for i in range(400, 470):
        title.insert({
            "id": i,
            "title": None if i % 3 == 0 else f"Movie {i % 50}",
            "production_year": None if i % 4 == 0 else 1950 + i % 70,
            "kind_id": None if i % 5 == 0 else i % 7})
    mc = catalog.table("movie_companies")
    for i in range(800, 1100):
        mc.insert({
            "id": i,
            "movie_id": None if i % 3 == 0 else i % 400,
            "company_type_id": None if i % 4 == 0 else i % 4,
            "note": None if i % 2 == 0 else "(presents)"})
    ct = catalog.table("company_type")
    for i in range(4, 8):
        ct.insert({"id": i, "kind": None if i % 2 == 0 else f"kind{i}"})


def _filters(alias):
    """Random AND/OR/NOT trees of leaf predicates over one alias."""
    _table, int_cols, char_cols = _TABLES[alias]

    def column(names):
        return st.sampled_from(names).map(lambda name: ColumnRef(alias, name))

    def operand(names, literals):
        return st.one_of(column(names), literals.map(Literal))

    def ordered(names, literals):
        pair = st.tuples(column(names), operand(names, literals))
        return st.builds(
            lambda op, pair, flip: Comparison(op, *(pair[::-1] if flip
                                                    else pair)),
            st.sampled_from(["=", "!=", "<", "<=", ">", ">="]), pair,
            st.booleans())

    any_column = column(int_cols + char_cols)
    leaf = st.one_of(
        ordered(int_cols, _INTS),
        ordered(char_cols, _STRS),
        # ``=`` across types is legal and never matches.
        st.builds(Comparison, st.just("="), column(int_cols),
                  _STRS.map(Literal)),
        st.builds(Between, column(int_cols), operand(int_cols, _INTS),
                  operand(int_cols, _INTS)),
        st.builds(Between, column(char_cols), _STRS.map(Literal),
                  _STRS.map(Literal)),
        st.builds(Like, any_column, _PATTERNS, st.booleans()),
        st.builds(InList, any_column,
                  st.lists(st.one_of(_INTS, _STRS,
                                     st.sampled_from([3.0, 2.5, 1960.0])),
                           min_size=1, max_size=4).map(tuple),
                  st.booleans()),
        st.builds(IsNull, any_column, st.booleans()))
    return st.recursive(
        leaf,
        lambda children: st.one_of(
            st.lists(children, min_size=2, max_size=3).map(
                lambda items: And(tuple(items))),
            st.lists(children, min_size=2, max_size=3).map(
                lambda items: Or(tuple(items))),
            children.map(Not)),
        max_leaves=6)


def test_random_filters_equal_row_reference(mini_catalog):
    _add_null_rows(mini_catalog)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), alias=st.sampled_from(sorted(_TABLES)))
    def check(data, alias):
        stats = mini_catalog.table(_TABLES[alias][0]).statistics
        expr = data.draw(_filters(alias))
        assert (sampled_selectivity(stats, alias, expr)
                == row_sampled_selectivity(stats, alias, expr)), str(expr)

    for name, _int_cols, char_cols in _TABLES.values():
        sample = mini_catalog.table(name).statistics.sample
        assert any(row[char_cols[0]] is None for row in sample), name
    check()


@pytest.mark.parametrize("expr", [
    InList(ColumnRef("t", "kind_id"), (3.0,)),
    InList(ColumnRef("t", "production_year"), (1960.0, "x", 2.5),
           negated=True),
    InList(ColumnRef("t", "kind_id"), (True, "1")),
])
def test_in_list_numeric_candidates_equal_row_reference(mini_catalog, expr):
    # Python equality: 3 == 3.0 and 1 == True.
    stats = mini_catalog.table("title").statistics
    assert (sampled_selectivity(stats, "t", expr)
            == row_sampled_selectivity(stats, "t", expr))


# ----------------------------------------------------------------------
# What planning does, counted
# ----------------------------------------------------------------------
_EXPR_CLASSES = (ColumnRef, Literal, Comparison, Like, InList, Between,
                 IsNull, And, Or, Not)


def test_planning_job_runs_no_row_eval_and_builds_columns_once(monkeypatch):
    # The AST carries no row interpreter (it lives in tests/rowref.py),
    # so planning cannot evaluate a predicate row by row.
    assert not any(hasattr(cls, "eval") for cls in _EXPR_CLASSES)
    env = build_environment(scale=0.0002, seed=7)
    builds = Counter()
    build_column = TableStatistics._sample_column

    def counted_build(stats, name):
        builds[stats.table_name, name] += 1
        return build_column(stats, name)

    monkeypatch.setattr(TableStatistics, "_sample_column", counted_build)
    evaluated = []
    eval_mask = join_order.eval_mask

    def counted_mask(expr, batch):
        evaluated.append(expr)
        return eval_mask(expr, batch)

    monkeypatch.setattr(join_order, "eval_mask", counted_mask)
    for _round in range(2):
        for name, sql in all_queries().items():
            evaluated.clear()
            plan = build_plan(sql, env.catalog)
            filters = [entry.local_filter for entry in plan.entries
                       if entry.local_filter is not None]
            assert sorted(map(str, evaluated)) == sorted(map(str, filters)), \
                name
    assert builds and set(builds.values()) == {1}


_INSERTS = {
    # 800 rows: the reservoir is full, so inserts replace random slots.
    "replaced slots": (
        "SELECT mc.id FROM movie_companies AS mc "
        "WHERE mc.note = '(new)' OR mc.movie_id < 40",
        "movie_companies",
        [{"id": i, "movie_id": 1000 + i, "company_type_id": 1,
          "note": "(new)"} for i in range(800, 1200)]),
    # 400 rows: inserts append to the reservoir.
    "appended rows": (
        "SELECT t.id FROM title AS t WHERE t.title LIKE 'New%'",
        "title",
        [{"id": i, "title": f"New {i}", "production_year": 2020,
          "kind_id": 1} for i in range(400, 480)]),
}


@pytest.mark.parametrize("case", sorted(_INSERTS))
def test_inserts_changing_sample_refresh_estimate(mini_catalog, kv_db,
                                                   device, case):
    sql, table_name, rows = _INSERTS[case]
    runner = StackRunner(mini_catalog, kv_db, device)
    plan = runner.plan(sql)
    assert runner.plan(sql) is plan
    stats = mini_catalog.table(table_name).statistics
    before = list(stats.sample)
    mini_catalog.table(table_name).insert_many(rows)
    assert len(stats.sample) == min(stats.sample_size, stats.row_count)
    assert stats.sample != before

    alias = plan.entries[0].alias
    expr = plan.spec.filter_for(alias)
    estimate = sampled_selectivity(stats, alias, expr)
    assert estimate == row_sampled_selectivity(stats, alias, expr)
    assert estimate > plan.entries[0].estimated_selectivity

    hits = runner.plan_cache_stats()["hits"]
    fresh = runner.plan(sql)
    assert fresh is not plan
    assert runner.plan_cache_stats()["hits"] == hits
    assert fresh.entries[0].estimated_selectivity == estimate
