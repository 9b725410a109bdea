"""Percentile, geomean and spread helpers."""

import pytest

from perfbench import stats


def test_percentile_interpolates_between_ranks():
    values = [10, 20, 30, 40]
    assert stats.percentile(values, 0) == 10
    assert stats.percentile(values, 100) == 40
    assert stats.percentile(values, 50) == 25
    assert stats.percentile([7], 95) == 7
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1], 101)


@pytest.mark.parametrize("count, want, used", [
    (1000, 95, 95.0),     # 50 samples beyond p95
    (200, 95, 95.0),      # exactly ten beyond
    (100, 95, 90.0),      # p95 would leave five beyond
    (100, 99.9, 90.0),
    (25, 95, 60.0),
    (4, 95, 50.0),        # nothing above the median is supported
])
def test_tail_needs_ten_samples_beyond(count, want, used):
    assert stats.supported_percentile(count, want) == pytest.approx(used)


def test_tail_percentile_reports_what_it_used():
    values = list(range(1, 101))
    value, used = stats.tail_percentile(values, 95)
    assert used == pytest.approx(90.0)
    assert value == pytest.approx(stats.percentile(values, 90))


def test_geomean_weights_samples_equally():
    assert stats.geomean([1, 100]) == pytest.approx(10)
    assert stats.geomean([4]) == pytest.approx(4)
    with pytest.raises(ValueError):
        stats.geomean([1, 0])
    with pytest.raises(ValueError):
        stats.geomean([])


def test_quartile_spread_is_iqr_over_median():
    values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    assert stats.quartile_spread(values) == pytest.approx(5.5 / 14.5)
    assert stats.quartile_spread([3]) == 0.0
    assert stats.quartile_spread([5, 5, 5, 5]) == 0.0
