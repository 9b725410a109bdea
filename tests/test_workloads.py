"""Tests for the JOB workload: schema, generator, queries, loader."""

import pytest

from repro.errors import ReproError
from repro.query.parser import parse_query
from repro.relational.schema import DataType
from repro.workloads.generator import (DatasetGenerator, DatasetSpec,
                                       INFO_TYPES, KIND_TYPES, ROLE_TYPES)
from repro.workloads.imdb_schema import (BASE_ROW_COUNTS,
                                         FIXED_SIZE_TABLES,
                                         JOB_TABLE_NAMES, imdb_schemas)
from repro.workloads.job_queries import (JOB_FAMILIES, all_queries,
                                         family_numbers,
                                         queries_in_family, query)


class TestSchema:
    def test_21_tables(self):
        schemas = imdb_schemas()
        assert len(schemas) == 21
        assert {s.name for s in schemas} == set(JOB_TABLE_NAMES)

    def test_every_table_has_int_pk(self):
        for schema in imdb_schemas():
            pk = schema.column(schema.primary_key)
            assert pk.dtype is DataType.INT
            assert not pk.nullable

    def test_fk_indexes_present(self):
        schemas = {s.name: s for s in imdb_schemas()}
        assert "movie_id" in schemas["movie_keyword"].secondary_indexes
        assert "person_id" in schemas["cast_info"].secondary_indexes
        assert "movie_id" in schemas["movie_companies"].secondary_indexes

    def test_indexes_can_be_disabled(self):
        for schema in imdb_schemas(secondary_indexes=False):
            assert schema.secondary_indexes == ()

    def test_base_counts_cover_all_tables(self):
        assert set(BASE_ROW_COUNTS) == set(JOB_TABLE_NAMES)
        assert sum(BASE_ROW_COUNTS.values()) == pytest.approx(74e6,
                                                              rel=0.05)


class TestDatasetSpec:
    def test_fixed_tables_keep_real_size(self):
        spec = DatasetSpec(scale=0.001)
        for name in FIXED_SIZE_TABLES:
            assert spec.rows_for(name) == BASE_ROW_COUNTS[name]

    def test_scaled_tables_shrink(self):
        spec = DatasetSpec(scale=0.001)
        assert spec.rows_for("cast_info") == int(36_244_344 * 0.001)

    def test_min_rows_floor(self):
        spec = DatasetSpec(scale=1e-7, min_rows=8)
        assert spec.rows_for("movie_link") == 8

    def test_invalid_scale_rejected(self):
        with pytest.raises(ReproError):
            DatasetSpec(scale=0)

    def test_table_overrides(self):
        spec = DatasetSpec(scale=0.001,
                           table_overrides=(("movie_link", 2000),))
        assert spec.rows_for("movie_link") == 2000
        assert spec.rows_for("title") == int(2_528_312 * 0.001)

    def test_bad_override_rejected(self):
        with pytest.raises(ReproError):
            DatasetSpec(table_overrides=(("ghost", 10),))
        with pytest.raises(ReproError):
            DatasetSpec(table_overrides=(("title", 0),))


class TestGenerator:
    @pytest.fixture(scope="class")
    def data(self):
        return DatasetGenerator(DatasetSpec(scale=0.0002, seed=3)
                                ).generate_all()

    def test_all_tables_generated(self, data):
        assert set(data) == set(JOB_TABLE_NAMES)

    def test_row_counts_match_spec(self, data):
        spec = DatasetSpec(scale=0.0002, seed=3)
        for name, rows in data.items():
            assert len(rows) == spec.rows_for(name)

    def test_dimension_vocabularies(self, data):
        assert [r["kind"] for r in data["kind_type"]] == KIND_TYPES
        assert [r["role"] for r in data["role_type"]] == ROLE_TYPES
        assert [r["info"] for r in data["info_type"]] == INFO_TYPES

    def test_primary_keys_unique_and_dense(self, data):
        for name, rows in data.items():
            ids = [r["id"] for r in rows]
            assert ids == list(range(1, len(rows) + 1)), name

    def test_foreign_keys_in_range(self, data):
        n_titles = len(data["title"])
        n_names = len(data["name"])
        for row in data["movie_keyword"]:
            assert 1 <= row["movie_id"] <= n_titles
        for row in data["cast_info"]:
            assert 1 <= row["person_id"] <= n_names
            assert 1 <= row["role_id"] <= len(ROLE_TYPES)

    def test_queryable_constants_exist(self, data):
        keywords = {r["keyword"] for r in data["keyword"]}
        assert "character-name-in-title" in keywords
        assert "10,000-mile-club" in keywords
        countries = {r["country_code"] for r in data["company_name"]}
        assert "[us]" in countries
        notes = {r["note"] for r in data["movie_companies"]}
        assert "(presents)" in notes
        assert None in notes

    def test_deterministic(self):
        spec = DatasetSpec(scale=0.0002, seed=3)
        a = DatasetGenerator(spec).generate("title")
        b = DatasetGenerator(spec).generate("title")
        assert a == b

    def test_different_seeds_differ(self):
        a = DatasetGenerator(DatasetSpec(scale=0.0002, seed=1)
                             ).generate("title")
        b = DatasetGenerator(DatasetSpec(scale=0.0002, seed=2)
                             ).generate("title")
        assert a != b

    def test_movie_popularity_skew(self, data):
        counts = {}
        for row in data["cast_info"]:
            counts[row["movie_id"]] = counts.get(row["movie_id"], 0) + 1
        n = len(data["title"])
        low = sum(c for m, c in counts.items() if m <= n // 4)
        high = sum(c for m, c in counts.items() if m > 3 * n // 4)
        assert low > 2 * max(1, high)

    def test_unknown_table_rejected(self):
        generator = DatasetGenerator(DatasetSpec())
        with pytest.raises(ReproError):
            generator.generate("ghost_table")


class TestQuerySuite:
    def test_113_queries_in_33_families(self):
        assert len(JOB_FAMILIES) == 33
        assert sum(len(v) for v in JOB_FAMILIES.values()) == 113
        assert len(all_queries()) == 113

    def test_family_numbers(self):
        assert family_numbers() == list(range(1, 34))

    def test_all_queries_parse(self):
        for name, sql in all_queries().items():
            parse_query(sql)

    def test_query_lookup(self):
        assert "top 250 rank" in query("1a")
        assert "writer" in query("8c")
        assert "costume designer" in query("8d")
        with pytest.raises(ReproError):
            query("99z")

    @pytest.mark.parametrize("name", ["zz", "a8", "8!a", "8", "", "8 c",
                                      "8C"])
    def test_malformed_query_name_is_a_typed_error(self, name):
        # Exactly <digits><letters>: no bare ValueError on "zz", and no
        # silent resolution of "a8" / "8!a" to 8a.
        with pytest.raises(ReproError, match="no JOB query"):
            query(name)

    def test_family_lookup(self):
        assert set(queries_in_family(8)) == {"a", "b", "c", "d"}
        with pytest.raises(ReproError):
            queries_in_family(50)

    def test_paper_query_shapes(self):
        """Table counts match the paper: Q8c has 7 tables, Q1a has 5."""
        assert query("8c").upper().count(" AS ") >= 7
        parsed = parse_query(query("1a"))
        assert len(parsed.tables) == 5
        parsed8 = parse_query(query("8c"))
        assert len(parsed8.tables) == 7
        parsed17 = parse_query(query("17b"))
        assert len(parsed17.tables) == 7

    def test_all_queries_are_aggregating(self):
        for name, sql in all_queries().items():
            parsed = parse_query(sql)
            assert all(item.aggregate == "min"
                       for item in parsed.select_items), name


class TestLoader:
    def test_environment_wiring(self, job_env):
        assert job_env.total_rows > 0
        assert job_env.catalog.table("title").row_count > 0
        assert job_env.buffer_scale > 0
        assert job_env.hardware.compute_gap > 20

    def test_all_tables_loaded(self, job_env):
        for name in JOB_TABLE_NAMES:
            assert job_env.catalog.table(name).row_count > 0

    def test_queries_plannable(self, job_env):
        for name in ("1a", "6b", "8c", "17b", "32b"):
            plan = job_env.runner.plan(query(name))
            assert plan.table_count >= 5
