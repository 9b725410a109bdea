"""Tests for statistics: reservoir sampling, histograms, selectivity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.query.ast import ColumnRef, Comparison, IsNull, Literal
from repro.query.join_order import sampled_selectivity
from repro.relational.statistics import Histogram, TableStatistics

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


class TestHistogram:
    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            Histogram([])

    def test_full_range_selectivity_is_one(self):
        histogram = Histogram(list(range(100)))
        assert histogram.selectivity() == pytest.approx(1.0)

    def test_half_range(self):
        histogram = Histogram(list(range(100)), buckets=16)
        sel = histogram.selectivity(lo=0, hi=49)
        assert 0.4 <= sel <= 0.6

    def test_out_of_range_is_zero(self):
        histogram = Histogram(list(range(100)))
        assert histogram.selectivity(lo=500, hi=600) == 0.0

    def test_equi_depth_handles_skew(self):
        # 90% of values are 0; a uniform min/max interpolation would say
        # [0, 0] covers ~0%, the equi-depth histogram says ~90%.
        values = [0] * 900 + list(range(1, 101))
        histogram = Histogram(values, buckets=16)
        assert histogram.selectivity(lo=0, hi=0) > 0.7

    def test_single_value(self):
        histogram = Histogram([5, 5, 5])
        assert histogram.selectivity(lo=5, hi=5) == pytest.approx(1.0)
        assert histogram.selectivity(lo=6, hi=9) == 0.0

    def test_bucket_count_bounded(self):
        assert Histogram([1, 2, 3], buckets=16).bucket_count <= 3

    @given(st.lists(st.integers(min_value=-1000, max_value=1000),
                    min_size=1, max_size=300),
           st.integers(min_value=-1000, max_value=1000),
           st.integers(min_value=-1000, max_value=1000))
    @settings(max_examples=50, deadline=None)
    def test_property_close_to_truth(self, values, a, b):
        lo, hi = min(a, b), max(a, b)
        histogram = Histogram(values)
        truth = sum(1 for v in values if lo <= v <= hi) / len(values)
        estimate = histogram.selectivity(lo=lo, hi=hi)
        assert abs(estimate - truth) <= 0.35   # coarse but sane

    @given(st.lists(st.integers(min_value=0, max_value=100),
                    min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_property_monotone_in_range(self, values):
        histogram = Histogram(values)
        narrow = histogram.selectivity(lo=25, hi=50)
        wide = histogram.selectivity(lo=0, hi=75)
        assert wide >= narrow - 1e-9


class TestTableSelectivity:
    def test_range_uses_histogram_for_skew(self):
        stats = load_stats([0] * 900 + list(range(1, 101)))
        assert stats.range_selectivity("v", lo=0, hi=0) > 0.5

    def test_range_fallback_for_strings(self):
        stats = load_stats(["a", "b", "c"])
        assert 0.0 < stats.range_selectivity("v", lo=None, hi=None) <= 1.0

    def test_histogram_none_for_non_numeric(self):
        stats = load_stats(["x", "y"])
        assert stats.histogram("v") is None

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
