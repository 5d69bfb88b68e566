"""Summary statistics for timing samples."""

from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10


def nearest_rank(sorted_values, q: float) -> float:
    """The nearest-rank q-th percentile (0 < q <= 100) of sorted values."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(math.ceil(q * len(sorted_values) / 100.0), 1)
    return sorted_values[rank - 1]


def tail(values, beyond: int = TAIL_BEYOND) -> tuple[int, float] | None:
    """The highest whole percentile with at least ``beyond`` samples above it.

    Returns ``(percentile, value)`` under the nearest-rank definition, or
    None when there are too few samples for any percentile to qualify.
    """
    n = len(values)
    if n <= beyond:
        return None
    q = (100 * (n - beyond)) // n
    return q, nearest_rank(sorted(values), q)


def timing(values) -> dict:
    """Sample count, minimum, median and tail percentile of one timing."""
    summary = {"n": len(values), "min": min(values, default=None),
               "median": statistics.median(values) if values else None}
    found = tail(values)
    summary["tail"] = None if found is None else {"percentile": found[0], "value": found[1]}
    return summary

