"""Order statistics for the benchmark's reports."""

from __future__ import annotations

import statistics

# Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 98.0, 97.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def tail_percentile(n: int) -> float | None:
    """The highest percentile of TAIL_LADDER with at least MIN_BEYOND of
    ``n`` samples beyond it, or None when even the median has fewer."""
    for p in TAIL_LADDER:
        if int(n * (100.0 - p) / 100.0 + 1e-9) >= MIN_BEYOND:
            return p
    return None


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return statistics.median(values)
