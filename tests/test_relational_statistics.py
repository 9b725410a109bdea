"""Tests for statistics: reservoir sampling, column stats, selectivity."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.query.ast import ColumnRef, Comparison, IsNull, Literal
from repro.query.join_order import sampled_selectivity
from repro.relational.statistics import TableStatistics

V = ColumnRef("t", "v")


def load_stats(values, column="v", sample_size=256):
    stats = TableStatistics("t", sample_size=sample_size, seed=1)
    for value in values:
        stats.observe_row({column: value})
    return stats


class TestReservoir:
    def test_sample_bounded(self):
        stats = load_stats(range(10_000), sample_size=64)
        assert len(stats.sample) == 64
        assert stats.row_count == 10_000

    def test_small_table_fully_sampled(self):
        stats = load_stats(range(10), sample_size=64)
        assert len(stats.sample) == 10

    def test_sample_is_representative(self):
        stats = load_stats(range(10_000), sample_size=256)
        mean = sum(row["v"] for row in stats.sample) / len(stats.sample)
        assert 3000 < mean < 7000

    def test_invalid_sample_size(self):
        with pytest.raises(SchemaError):
            TableStatistics("t", sample_size=0)


class TestTableSelectivity:
    def test_predicate_selectivity_smoothed(self):
        stats = load_stats(range(100))
        never = sampled_selectivity(stats, "t",
                                    Comparison("<", V, Literal(0)))
        always = sampled_selectivity(stats, "t", IsNull(V, negated=True))
        assert 0.0 < never < 0.05
        assert 0.95 < always < 1.0

    def test_selectivity_tolerates_bad_predicates(self):
        # A column no sampled row carries reads as NULL: never matches.
        stats = load_stats(range(10))
        sel = sampled_selectivity(
            stats, "t", Comparison(">", ColumnRef("t", "missing"),
                                   Literal(1)))
        assert 0.0 < sel < 0.2

    def test_empty_sample_default(self):
        stats = TableStatistics("t")
        assert sampled_selectivity(stats, "t",
                                   IsNull(V, negated=True)) == 0.1


def _fold_one_at_a_time(rows, sample_size, seed):
    """Reference: every value and row folded alone, the plain way."""
    columns = {}
    sample = []
    rng = random.Random(seed)
    for count, row in enumerate(rows, start=1):
        for name, value in row.items():
            col = columns.setdefault(
                name, {"n_values": 0, "n_nulls": 0, "min": None,
                       "max": None, "distinct": set()})
            if value is None:
                col["n_nulls"] += 1
                continue
            col["n_values"] += 1
            if col["min"] is None or value < col["min"]:
                col["min"] = value
            if col["max"] is None or value > col["max"]:
                col["max"] = value
            if len(col["distinct"]) < 4096:
                col["distinct"].add(value)
        if len(sample) < sample_size:
            sample.append(dict(row))
        else:
            slot = rng.randrange(count)
            if slot < sample_size:
                sample[slot] = dict(row)
    return columns, sample, rng.getstate()


def _state(stats):
    columns = {name: {"n_values": col.n_values, "n_nulls": col.n_nulls,
                      "min": col.min_value, "max": col.max_value,
                      "distinct": col._distinct}
               for name, col in stats.columns.items()}
    for name, col in stats.columns.items():
        assert col.distinct_estimate == len(col._distinct), name
    return columns, stats.sample, stats._rng.getstate()


def _assert_folds_like_reference(batches, sample_size=16, seed=3):
    stats = TableStatistics("t", sample_size=sample_size, seed=seed)
    for batch in batches:
        stats.observe_rows(batch)
    rows = [row for batch in batches for row in batch]
    want = _fold_one_at_a_time(rows, sample_size, seed)
    got = _state(stats)
    assert got == want
    # Column order is first appearance, as one-at-a-time folding has it.
    assert list(got[0]) == list(want[0])
    assert stats.row_count == len(rows)


class TestObserveRows:
    def test_distinct_cap_crossed_mid_batch(self):
        first = [{"v": i} for i in range(4000)]
        # Repeats of seen values, then more new values than the cap has
        # room for: only the first 96 new ones may get in.
        second = ([{"v": i} for i in range(0, 4000, 7)]
                  + [{"v": None}]
                  + [{"v": 10_000 - i} for i in range(300)])
        _assert_folds_like_reference([first, second])
        stats = TableStatistics("t", seed=3)
        stats.observe_rows(first)
        stats.observe_rows(second)
        column = stats.column("v")
        assert column.distinct_estimate == 4096
        assert 10_000 - 95 in column._distinct
        assert 10_000 - 96 not in column._distinct

    def test_cap_crossed_within_one_batch(self):
        _assert_folds_like_reference(
            [[{"v": i % 5000, "w": str(i % 3)} for i in range(9000)]])

    @given(st.lists(st.lists(
        st.dictionaries(st.sampled_from("abc"),
                        st.none() | st.integers(-5, 5), max_size=3),
        max_size=12), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_differing_key_sets(self, batches):
        _assert_folds_like_reference(batches, sample_size=5)

    def test_observe_row_is_a_batch_of_one(self):
        rows = [{"a": i, "b": None if i % 3 else str(i)} for i in range(50)]
        _assert_folds_like_reference([[row] for row in rows], sample_size=8)

    def test_sample_columns_dropped_only_when_the_sample_changes(self):
        stats = TableStatistics("t", sample_size=2, seed=0)
        stats.observe_rows([{"v": 1}, {"v": 2}])
        before = stats.sample_batch("t", ["v"]).column("t.v")[0]
        assert list(before) == [1, 2]
        stats.observe_rows([{"v": 3}] * 40)
        after = stats.sample_batch("t", ["v"]).column("t.v")[0]
        assert sorted(after) == sorted(row["v"] for row in stats.sample)
