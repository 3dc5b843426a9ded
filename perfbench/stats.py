"""Percentiles under the sample-count rule.

A percentile q is reported only when at least ten samples lie beyond
it: n * (1 - q/100) >= 10, so p90 needs n >= 100 and p99 n >= 1000.
"""
from __future__ import annotations

import math


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    k = max(1, math.ceil(q / 100.0 * len(xs)))
    return xs[k - 1]


def reportable(n: int, q: float) -> bool:
    return n * (1.0 - q / 100.0) >= 10 - 1e-9


def tail_percentile(n: int) -> int:
    """The highest of 99 / 90 that the rule allows at ``n`` samples,
    else 50 (the median is always reported)."""
    for q in (99, 90):
        if reportable(n, q):
            return q
    return 50


def slice_bounds(n: int, min_size: int, max_count: int) -> list[int]:
    """Bounds of k contiguous, near-equal slices of n items: as many as
    allow ``min_size`` items each, at most ``max_count``, at least one."""
    k = max(1, min(max_count, n // min_size))
    return [round(i * n / k) for i in range(k + 1)]
