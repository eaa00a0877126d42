"""Order statistics used by the benchmark: medians, quartiles and the tail rule."""

from __future__ import annotations

from typing import Sequence

# Candidate tail percentiles, highest first. The lowest one, p75, is the
# first with ten samples beyond it once there are forty samples.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10
MIN_SAMPLES_FOR_TAIL = 40


def _rank(p: float, n: int) -> int:
    """ceil(p% of n), exact for percentiles given to a tenth."""
    return -(-round(p * 10) * n // 1000)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with p% of samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    return ordered[max(1, _rank(p, len(ordered))) - 1]


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def tail_percentile(n: int) -> float | None:
    """Highest candidate percentile with at least MIN_BEYOND samples above it.

    None below MIN_SAMPLES_FOR_TAIL samples: such a percentile would be no tail.
    """
    if n < MIN_SAMPLES_FOR_TAIL:
        return None
    for p in TAIL_PERCENTILES:
        if n - _rank(p, n) >= MIN_BEYOND:
            return p
    return None


def tail(values: Sequence[float]) -> tuple[float, float] | None:
    """(percentile, value) of the tail the sample supports, or None."""
    p = tail_percentile(len(values))
    if p is None:
        return None
    return p, percentile(values, p)
