"""Order statistics used by the benchmark's metrics."""

from __future__ import annotations

import math
import statistics

#: a reported tail percentile must have at least this many samples beyond it
TAIL_MIN_BEYOND = 10


def tail(values):
    """The highest percentile with at least ``TAIL_MIN_BEYOND`` samples beyond it.

    Returns ``(value, percentile, count)``. The percentile ``p`` is the largest
    whole number with ``n * (1 - p/100) >= TAIL_MIN_BEYOND``; its value is the
    nearest-rank sample. When fewer than ``2 * TAIL_MIN_BEYOND`` samples exist
    that percentile would sit at or below the median, so the maximum is
    reported instead, with percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of an empty sample")
    if n < 2 * TAIL_MIN_BEYOND:
        return xs[-1], 100, n
    p = math.floor(100 * (n - TAIL_MIN_BEYOND) / n)
    rank = math.ceil(p / 100 * n)  # nearest rank, 1-based
    return xs[rank - 1], p, n


def median(values) -> float:
    return float(statistics.median(values))

