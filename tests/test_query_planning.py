"""Tests for logical analysis, join ordering and physical planning."""

import pytest

from repro.errors import PlanError
from repro.query.logical import analyze
from repro.query.optimizer import build_plan
from repro.query.parser import parse_query
from repro.query.physical import AccessPath, JoinAlgorithm

from tests.conftest import MINI_JOIN_SQL


class TestLogicalAnalysis:
    def _spec(self, sql, catalog):
        return analyze(parse_query(sql), catalog, sql=sql)

    def test_filters_split_per_table(self, mini_catalog):
        spec = self._spec(MINI_JOIN_SQL, mini_catalog)
        assert spec.filter_for("ct") is not None
        assert spec.filter_for("mc") is not None
        assert spec.filter_for("t") is not None

    def test_join_edges_extracted(self, mini_catalog):
        spec = self._spec(MINI_JOIN_SQL, mini_catalog)
        edges = {str(edge) for edge in spec.join_edges}
        assert "ct.id = mc.company_type_id" in edges
        assert "t.id = mc.movie_id" in edges

    def test_unqualified_columns_bound(self, mini_catalog):
        sql = ("SELECT title FROM title AS t WHERE production_year > 2000")
        spec = self._spec(sql, mini_catalog)
        assert spec.filter_for("t") is not None
        ref = spec.select_items[0].expr
        assert ref.alias == "t"

    def test_ambiguous_column_rejected(self, mini_catalog):
        sql = ("SELECT id FROM title AS t, company_type AS ct "
               "WHERE t.id = ct.id")
        with pytest.raises(PlanError):
            self._spec(sql, mini_catalog)

    def test_unknown_column_rejected(self, mini_catalog):
        with pytest.raises(PlanError):
            self._spec("SELECT ghost FROM title AS t", mini_catalog)

    @pytest.mark.parametrize("sql", [
        "SELECT t.ghost FROM title AS t",
        "SELECT t.id FROM title AS t WHERE t.ghost < 5",
        "SELECT t.id FROM title AS t WHERE x.title = 'a'",
        "SELECT t.id FROM title AS t GROUP BY x.id"])
    def test_unknown_qualified_column_rejected(self, mini_catalog, sql):
        with pytest.raises(PlanError):
            self._spec(sql, mini_catalog)

    def test_duplicate_alias_rejected(self, mini_catalog):
        with pytest.raises(PlanError):
            self._spec("SELECT t.id FROM title AS t, company_type AS t",
                       mini_catalog)

    def test_cross_table_or_becomes_residual(self, mini_catalog):
        sql = ("SELECT t.title FROM title AS t, movie_companies AS mc "
               "WHERE t.id = mc.movie_id "
               "AND (t.kind_id = 1 OR mc.company_type_id = 2)")
        spec = self._spec(sql, mini_catalog)
        assert spec.residual is not None

    def test_projections_cover_select_and_joins(self, mini_catalog):
        spec = self._spec(MINI_JOIN_SQL, mini_catalog)
        assert "movie_id" in spec.projections["mc"]
        assert "title" in spec.projections["t"]
        assert "id" in spec.projections["ct"]

    def test_edge_helpers(self, mini_catalog):
        spec = self._spec(MINI_JOIN_SQL, mini_catalog)
        edge = spec.join_edges[0]
        assert edge.touches(edge.left_alias)
        other_alias, _ = edge.other(edge.left_alias)
        assert other_alias == edge.right_alias
        with pytest.raises(PlanError):
            edge.other("zz")


class TestJoinOrdering:
    def test_driving_table_is_most_selective(self, mini_catalog):
        plan = build_plan(MINI_JOIN_SQL, mini_catalog)
        # ct.kind = 'production companies' matches ~1 of 4 rows: ct first.
        assert plan.entries[0].alias == "ct"

    def test_left_deep_connectivity(self, mini_catalog):
        plan = build_plan(MINI_JOIN_SQL, mini_catalog)
        placed = {plan.entries[0].alias}
        for entry in plan.entries[1:]:
            assert entry.join_edges, f"{entry.alias} joined cartesian"
            for edge in entry.join_edges:
                other_alias, _ = edge.other(entry.alias)
                assert other_alias in placed
            placed.add(entry.alias)

    def test_cumulative_estimates_present(self, mini_catalog):
        plan = build_plan(MINI_JOIN_SQL, mini_catalog)
        for entry in plan.entries:
            assert entry.estimated_rows >= 1
            assert entry.estimated_output_rows >= 1


class TestAccessPaths:
    def test_pk_join_uses_bnlji(self, mini_catalog):
        plan = build_plan(MINI_JOIN_SQL, mini_catalog)
        t_entry = plan.entry("t")
        assert t_entry.join_algorithm is JoinAlgorithm.BNLJI
        assert t_entry.index_column == "id"

    def test_secondary_index_join(self, mini_catalog):
        sql = ("SELECT mc.note FROM title AS t, movie_companies AS mc "
               "WHERE t.production_year = 1999 AND t.id = mc.movie_id")
        plan = build_plan(sql, mini_catalog)
        assert plan.entries[0].alias == "t"
        assert plan.entries[0].access_path is AccessPath.SECONDARY_LOOKUP
        mc_entry = plan.entry("mc")
        assert mc_entry.join_algorithm is JoinAlgorithm.BNLJI
        assert mc_entry.index_column == "movie_id"

    def test_non_indexed_join_uses_bnlj(self, mini_catalog):
        sql = ("SELECT t.title FROM title AS t, movie_companies AS mc "
               "WHERE t.kind_id = mc.company_type_id")
        plan = build_plan(sql, mini_catalog)
        assert plan.entries[1].join_algorithm is JoinAlgorithm.BNLJ

    def test_pk_range_access(self, mini_catalog):
        sql = "SELECT t.title FROM title AS t WHERE t.id <= 10"
        plan = build_plan(sql, mini_catalog)
        assert plan.entries[0].access_path is AccessPath.PK_RANGE

    def test_full_scan_fallback(self, mini_catalog):
        sql = "SELECT t.title FROM title AS t WHERE t.kind_id = 3"
        plan = build_plan(sql, mini_catalog)
        assert plan.entries[0].access_path is AccessPath.FULL_SCAN


class TestPlanStructure:
    def test_prefix_suffix(self, mini_catalog):
        plan = build_plan(MINI_JOIN_SQL, mini_catalog)
        assert len(plan.prefix(0)) == 1
        assert len(plan.suffix(0)) == plan.table_count - 1
        assert plan.prefix(plan.table_count - 1) == plan.entries
        with pytest.raises(PlanError):
            plan.prefix(99)

    def test_join_count(self, mini_catalog):
        plan = build_plan(MINI_JOIN_SQL, mini_catalog)
        assert plan.join_count == plan.table_count - 1

    def test_describe_readable(self, mini_catalog):
        text = build_plan(MINI_JOIN_SQL, mini_catalog).describe()
        assert "driving" in text
        assert "bnlji" in text or "bnlj" in text

    def test_entry_lookup(self, mini_catalog):
        plan = build_plan(MINI_JOIN_SQL, mini_catalog)
        assert plan.entry("mc").alias == "mc"
        with pytest.raises(PlanError):
            plan.entry("zz")

    def test_single_table_plan(self, mini_catalog):
        plan = build_plan("SELECT t.title FROM title AS t", mini_catalog)
        assert plan.table_count == 1
        assert plan.entries[0].join_algorithm is None
