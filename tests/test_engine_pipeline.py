"""Unit tests for pipeline internals: predicate costing, decode plans,
buffer-driven BNL blocking, pointer-cache materialization, finalize."""

import pytest

from repro.columns import ColumnBatch
from repro.engine.counters import WorkCounters
from repro.engine.pipeline import (PipelineConfig, PipelineExecutor,
                                   finalize, predicate_cost)
from repro.errors import ExecutionError
from repro.query.optimizer import build_plan
from repro.query.parser import SelectItem
from repro.query.ast import ColumnRef

from tests.conftest import MINI_JOIN_SQL


def make_executor(catalog, **config):
    counters = WorkCounters()
    executor = PipelineExecutor(catalog, PipelineConfig(**config), counters)
    return executor, counters


class TestPredicateCost:
    def _filter(self, catalog, sql):
        plan = build_plan(sql, catalog)
        return plan.entries[0].local_filter, plan.spec.tables

    def test_none_costs_nothing(self, mini_catalog):
        assert predicate_cost(None, mini_catalog, {}) == (0, 0)

    def test_like_charges_column_width(self, mini_catalog):
        expr, tables = self._filter(
            mini_catalog,
            "SELECT mc.id FROM movie_companies AS mc "
            "WHERE mc.note LIKE '%x%'")
        ops, memcmp = predicate_cost(expr, mini_catalog, tables)
        assert ops == 1
        assert memcmp == 40     # CHAR(40), already 4-byte aligned

    def test_int_comparison_no_memcmp(self, mini_catalog):
        expr, tables = self._filter(
            mini_catalog,
            "SELECT t.id FROM title AS t WHERE t.kind_id = 3")
        ops, memcmp = predicate_cost(expr, mini_catalog, tables)
        assert ops == 1 and memcmp == 0

    def test_in_list_charges_per_value(self, mini_catalog):
        expr, tables = self._filter(
            mini_catalog,
            "SELECT t.id FROM title AS t WHERE t.kind_id IN (1, 2, 3)")
        ops, _ = predicate_cost(expr, mini_catalog, tables)
        assert ops == 3

    def test_between_two_ops(self, mini_catalog):
        expr, tables = self._filter(
            mini_catalog,
            "SELECT t.id FROM title AS t "
            "WHERE t.production_year BETWEEN 1990 AND 2000")
        ops, _ = predicate_cost(expr, mini_catalog, tables)
        assert ops == 2


class TestDecodePlan:
    def test_needed_covers_filter_and_joins(self, mini_catalog):
        plan = build_plan(MINI_JOIN_SQL, mini_catalog)
        executor, _ = make_executor(mini_catalog)
        executor._tables = plan.spec.tables
        mc = plan.entry("mc")
        needed, emitted, exact = executor._decode_plan(mc)
        assert "note" in needed               # filter column
        assert "movie_id" in needed           # join column
        assert emitted == (needed if exact else list(mc.projection))
        assert executor._decode_plan(mc) is executor._decode_plan(mc)


class TestRun:
    def test_empty_entries_with_no_input_rejected(self, mini_catalog):
        executor, _ = make_executor(mini_catalog)
        with pytest.raises(ExecutionError):
            executor.run([], {})

    def test_max_rows_guard(self, mini_catalog):
        plan = build_plan(
            "SELECT t.id FROM title AS t, movie_companies AS mc "
            "WHERE t.id = mc.movie_id", mini_catalog)
        executor, _ = make_executor(mini_catalog, max_rows=10)
        with pytest.raises(ExecutionError):
            executor.run(plan.entries, plan.spec.tables)

    def test_bnl_blocking_counts_rescans(self, mini_catalog):
        sql = ("SELECT t.id FROM title AS t, movie_companies AS mc "
               "WHERE t.kind_id = mc.company_type_id")   # BNLJ join
        plan = build_plan(sql, mini_catalog)
        big_exec, big_counters = make_executor(
            mini_catalog, join_buffer_bytes=1 << 24)
        big_exec.run(plan.entries, plan.spec.tables)
        small_exec, small_counters = make_executor(
            mini_catalog, join_buffer_bytes=64)
        small_exec.run(plan.entries, plan.spec.tables)
        # Tiny buffer => many outer blocks => inner rescans => more work.
        assert (small_counters.records_evaluated
                > 2 * big_counters.records_evaluated)

    def test_pointer_cache_reduces_materialized_bytes(self, mini_catalog):
        # Wide projections are where the pointer format pays off (§4.2);
        # a pointer is 8 bytes vs a CHAR(40) note / CHAR(32) title.
        sql = ("SELECT mc.note, t.title FROM title AS t, "
               "movie_companies AS mc WHERE t.id = mc.movie_id")
        plan = build_plan(sql, mini_catalog)
        row_exec, row_counters = make_executor(
            mini_catalog, pointer_cache=False)
        row_exec.run(plan.entries, plan.spec.tables)
        ptr_exec, ptr_counters = make_executor(
            mini_catalog, pointer_cache=True)
        ptr_exec.run(plan.entries, plan.spec.tables)
        assert (ptr_counters.bytes_materialized
                < row_counters.bytes_materialized)
        assert (ptr_counters.output_rows == row_counters.output_rows)

    def test_block_cache_reduces_flash_reads(self, mini_catalog):
        plan = build_plan(MINI_JOIN_SQL, mini_catalog)
        cold_exec, cold = make_executor(mini_catalog, block_cache_bytes=0)
        cold_exec.run(plan.entries, plan.spec.tables)
        warm_exec, warm = make_executor(mini_catalog,
                                        block_cache_bytes=1 << 24)
        warm_exec.run(plan.entries, plan.spec.tables)
        assert warm.flash_bytes_read < cold.flash_bytes_read
        assert warm.block_cache_hits > 0


class TestFinalize:
    def _items(self, *specs):
        items = []
        for aggregate, alias, column, name in specs:
            expr = "*" if column == "*" else ColumnRef(alias, column)
            items.append(SelectItem(expr, aggregate=aggregate, alias=name))
        return items

    def test_plain_projection(self):
        counters = WorkCounters()
        rows = ColumnBatch.from_rows([{"t.a": 1, "t.b": 2},
                                      {"t.a": 3, "t.b": 4}])
        out, columns = finalize(
            rows, self._items((None, "t", "a", "x")), [], counters)
        assert out == [{"x": 1}, {"x": 3}]
        assert columns == ["x"]

    def test_limit(self):
        counters = WorkCounters()
        rows = ColumnBatch.from_rows([{"t.a": i} for i in range(10)])
        out, _ = finalize(rows, self._items((None, "t", "a", None)), [],
                          counters, limit=3)
        assert len(out) == 3

    def test_aggregates_over_empty_input(self):
        items = self._items(("min", "t", "a", "lo"), ("count", "t", "*", "n"))
        # No rows, and no fragments at all (a list of zero batches).
        for empty in (ColumnBatch.from_rows([]), []):
            out, _ = finalize(empty, items, [], WorkCounters())
            assert out == [{"lo": None, "n": 0}]

    def test_min_ignores_nulls(self):
        counters = WorkCounters()
        rows = ColumnBatch.from_rows([{"t.a": None}, {"t.a": 5}, {"t.a": 2}])
        out, _ = finalize(rows, self._items(("min", "t", "a", "lo")),
                          [], counters)
        assert out[0]["lo"] == 2

    def test_group_by(self):
        counters = WorkCounters()
        rows = ColumnBatch.from_rows([{"t.g": "x", "t.a": 1},
                                      {"t.g": "x", "t.a": 3},
                                      {"t.g": "y", "t.a": 5}])
        out, columns = finalize(
            rows, self._items(("sum", "t", "a", "total")),
            [ColumnRef("t", "g")], counters)
        got = {row["t.g"]: row["total"] for row in out}
        assert got == {"x": 4, "y": 5}
        assert "t.g" in columns

    def test_unknown_aggregate_rejected(self):
        counters = WorkCounters()
        with pytest.raises(ExecutionError):
            finalize(ColumnBatch.from_rows([{"t.a": 1}]),
                     self._items(("median", "t", "a", None)), [], counters)
