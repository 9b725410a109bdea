"""Sample statistics the benchmark reports: percentiles, geomean, spread."""

import math
import statistics

#: A percentile is only reported when at least this many samples lie
#: beyond it (choosing-metrics guide); fewer and a single slow sample
#: would *be* the percentile.
MIN_SAMPLES_BEYOND = 10


def percentile(values, pct):
    """Linear-interpolated ``pct``-th percentile (0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile {pct} outside [0, 100]")
    ordered = sorted(values)
    position = pct / 100.0 * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def supported_percentile(count, want):
    """Highest percentile <= ``want`` with ten samples beyond it.

    ``count * (1 - p/100) >= MIN_SAMPLES_BEYOND`` bounds ``p``; samples
    too few to support anything above the median fall back to the
    median, which every non-empty sample supports.
    """
    if count <= 0:
        raise ValueError("no samples")
    limit = 100.0 * (1.0 - MIN_SAMPLES_BEYOND / count)
    return max(50.0, min(float(want), limit))


def tail_percentile(values, want):
    """``(value, percentile used)`` for the tail metric named p``want``."""
    used = supported_percentile(len(values), want)
    return percentile(values, used), used


def geomean(values):
    """Geometric mean of positive values (weights every sample equally)."""
    if not values:
        raise ValueError("geomean of an empty sample")
    if min(values) <= 0:
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(value) for value in values) / len(values))


def quartile_spread(values):
    """Inter-quartile distance as a share of the median.

    The noise measure the driver applies to ten runs of one metric; two
    medians closer than this cannot be told apart.
    """
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else float("inf")
