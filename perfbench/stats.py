"""Order statistics shared by worker.py and run.py."""

from __future__ import annotations

import math


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of
    the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def beyond_p90(n: int) -> int:
    """How many of n samples lie above the nearest-rank p90."""
    return n - max(1, math.ceil(0.9 * n))
