"""Tests for relational tables, secondary indexes, and the catalog."""

import pytest

from repro.errors import CatalogError, SchemaError
from repro.lsm.store import ReadStats
from repro.query.ast import ColumnRef, Comparison, Literal
from repro.query.join_order import sampled_selectivity
from repro.relational.catalog import Catalog
from repro.relational.scan import ScanRequest
from repro.relational.schema import TableSchema, char_col, int_col


@pytest.fixture
def people(kv_db):
    catalog = Catalog(kv_db)
    table = catalog.create_table(TableSchema(
        "people",
        (int_col("id", False), char_col("name", 16), int_col("age"),
         char_col("city", 12)),
        "id", ("age", "city")))
    rows = [
        {"id": 1, "name": "alice", "age": 30, "city": "berlin"},
        {"id": 2, "name": "bob", "age": 25, "city": "paris"},
        {"id": 3, "name": "carol", "age": 30, "city": "berlin"},
        {"id": 4, "name": "dave", "age": None, "city": "rome"},
    ]
    table.insert_many(rows)
    table.flush()
    return table


class TestInsertGet:
    def test_get_by_pk(self, people):
        row = people.get_by_pk(2)
        assert row["name"] == "bob" and row["age"] == 25

    def test_get_missing(self, people):
        assert people.get_by_pk(99) is None

    def test_pk_required(self, people):
        with pytest.raises(SchemaError):
            people.insert({"name": "no-id"})

    def test_row_count(self, people):
        assert people.row_count == 4


class TestWritePath:
    def _lsm_state(self, table):
        trees = [table.family.tree] + [index.family.tree
                                       for index in table.indexes.values()]
        return [(tree.version, tree.write_stats.puts) for tree in trees]

    def test_reinserting_a_primary_key_is_rejected(self, kv_db):
        table = Catalog(kv_db).create_table(TableSchema(
            "t", (int_col("id", False), int_col("age")), "id", ("age",)))
        table.insert({"id": 1, "age": 30})
        before = self._lsm_state(table)
        with pytest.raises(SchemaError, match="duplicate primary key 1"):
            table.insert({"id": 1, "age": 40})
        assert self._lsm_state(table) == before      # nothing written
        assert table.row_count == 1
        assert table.get_by_pk(1) == {"id": 1, "age": 30}
        assert list(table.index_lookup("age", 30)) == [{"id": 1, "age": 30}]
        assert list(table.index_lookup("age", 40)) == []

    def test_reinsert_after_delete_is_allowed(self, people):
        assert people.delete(1)
        people.insert({"id": 1, "name": "al", "age": 31, "city": "oslo"})
        assert people.get_by_pk(1)["name"] == "al"
        assert [r["id"] for r in people.index_lookup("age", 31)] == [1]

    def test_key_repeated_within_a_batch_is_rejected(self, people):
        with pytest.raises(SchemaError, match="duplicate primary key 7"):
            people.insert_many([{"id": 7, "name": "x"},
                                {"id": 8, "name": "y"},
                                {"id": 7, "name": "z"}])
        assert people.get_by_pk(7)["name"] == "x"
        assert people.get_by_pk(8)["name"] == "y"
        assert people.row_count == 6

    @pytest.mark.parametrize("bad_row", [
        {"id": 12, "name": "n", "age": "old"},           # codec: type
        {"name": "no-id", "age": 1},                      # pk unset
        {"id": 2, "name": "dup", "age": 1},               # pk in the table
        {"id": 11, "name": "dup-in-batch", "age": 1},     # pk in the batch
    ])
    def test_error_in_row_i_keeps_rows_before_it(self, people, bad_row):
        rows = ([{"id": 10, "name": "j", "age": 50, "city": "kyiv"},
                 {"id": 11, "name": "k", "age": 51, "city": None}]
                + [bad_row]
                + [{"id": 13, "name": "m", "age": 53, "city": "lima"}])
        with pytest.raises(SchemaError):
            people.insert_many(rows)
        # Rows 0 and 1 are written, indexed and observed...
        assert [people.get_by_pk(pk)["name"] for pk in (10, 11)] == ["j", "k"]
        assert [r["id"] for r in people.index_lookup("age", 51)] == [11]
        assert people.row_count == 6
        assert people.mutation_count == 6
        age = people.statistics.column("age")
        assert (age.n_values, age.max_value) == (5, 51)
        assert people.statistics.column("city").n_nulls == 1
        assert {row["id"] for row in people.statistics.sample} == {
            1, 2, 3, 4, 10, 11}
        # ... and nothing from the bad row on.
        assert people.get_by_pk(13) is None
        assert people.get_by_pk(12) is None
        assert list(people.index_lookup("age", 53)) == []
        assert list(people.index_lookup("city", "lima")) == []


class TestScan:
    def test_full_scan(self, people):
        assert len(list(people.scan())) == 4

    def test_pk_range_scan(self, people):
        rows = list(people.scan(ScanRequest(pk_lo=2, pk_hi=3)))
        assert [r["id"] for r in rows] == [2, 3]

    def test_unknown_kwarg_is_type_error(self, people):
        with pytest.raises(TypeError):
            list(people.scan(bogus=1))

    def test_scan_batch_matches_scan(self, people):
        batch = people.scan_batch(ScanRequest())
        assert batch.rows() == list(people.scan())

    def test_scan_batch_pk_range(self, people):
        batch = people.scan_batch(ScanRequest(pk_lo=2, pk_hi=3))
        assert batch.column_list("id") == [2, 3]


class TestSecondaryIndexes:
    def test_index_lookup(self, people):
        rows = list(people.index_lookup("age", 30))
        assert {r["id"] for r in rows} == {1, 3}

    def test_index_lookup_string_column(self, people):
        rows = list(people.index_lookup("city", "berlin"))
        assert {r["id"] for r in rows} == {1, 3}

    def test_null_values_not_indexed(self, people):
        index = people.index_on("age")
        all_keys = list(index.primary_keys_in_range())
        # dave (age NULL) is absent: 3 of 4 rows indexed.
        assert len(all_keys) == 3

    def test_lookup_performs_double_seek(self, people):
        stats = ReadStats()
        list(people.index_lookup("age", 30, stats=stats))
        # Secondary CF scan plus one primary GET per match.
        assert stats.ssts_considered >= 1

    def test_missing_index_rejected(self, people):
        with pytest.raises(CatalogError):
            people.index_on("name")

    def test_has_index_on(self, people):
        assert people.has_index_on("age")
        assert people.has_index_on("id")      # primary key counts
        assert not people.has_index_on("name")

    def test_delete_cleans_indexes(self, people):
        assert people.delete(1) is True
        assert people.get_by_pk(1) is None
        assert {r["id"] for r in people.index_lookup("age", 30)} == {3}

    def test_delete_missing_returns_false(self, people):
        assert people.delete(99) is False

    def test_index_range(self, people):
        index = people.index_on("age")
        keys = list(index.primary_keys_in_range(lo=26, hi=35))
        assert len(keys) == 2


class TestUpdate:
    def test_update_changes_values(self, people):
        new_row = people.update(2, {"age": 26})
        assert new_row["age"] == 26
        assert people.get_by_pk(2)["age"] == 26

    def test_update_maintains_secondary_index(self, people):
        people.update(2, {"age": 30})
        assert {r["id"] for r in people.index_lookup("age", 30)} == {
            1, 2, 3}
        assert not list(people.index_lookup("age", 25))

    def test_update_to_null_deindexes(self, people):
        people.update(1, {"age": None})
        assert {r["id"] for r in people.index_lookup("age", 30)} == {3}

    def test_update_missing_row(self, people):
        assert people.update(999, {"age": 1}) is None

    def test_update_pk_rejected(self, people):
        with pytest.raises(SchemaError):
            people.update(1, {"id": 2})

    def test_update_unknown_column_rejected(self, people):
        with pytest.raises(SchemaError):
            people.update(1, {"ghost": 1})

    def test_update_unindexed_column(self, people):
        people.update(1, {"name": "renamed"})
        assert people.get_by_pk(1)["name"] == "renamed"
        assert {r["id"] for r in people.index_lookup("age", 30)} == {1, 3}


class TestCatalog:
    def test_duplicate_table_rejected(self, kv_db):
        catalog = Catalog(kv_db)
        schema = TableSchema("t", (int_col("id", False),), "id")
        catalog.create_table(schema)
        with pytest.raises(CatalogError):
            catalog.create_table(schema)

    def test_missing_table_rejected(self, kv_db):
        with pytest.raises(CatalogError):
            Catalog(kv_db).table("ghost")

    def test_column_families_per_table(self, people):
        families = people.column_families()
        assert "people" in families
        assert "people.idx_age" in families
        assert "people.idx_city" in families

    def test_totals(self, people):
        assert people.total_bytes == 4 * people.record_bytes


class TestStatistics:
    def test_selectivity_from_sample(self, people):
        stats = people.statistics
        sel = sampled_selectivity(
            stats, "p", Comparison("=", ColumnRef("p", "age"), Literal(30)))
        assert 0.2 < sel < 0.8

    def test_column_minmax(self, people):
        col = people.statistics.column("age")
        assert col.min_value == 25 and col.max_value == 30
        assert col.n_nulls == 1

    def test_distinct_estimate(self, people):
        assert people.statistics.column("city").distinct_estimate == 3

    def test_estimated_rows_floor(self, people):
        assert people.statistics.estimated_rows(0.0) == 1
