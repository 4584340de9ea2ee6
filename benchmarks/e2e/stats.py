"""Statistics the benchmark reports: percentiles with enough samples
beyond them, failure-aware latency samples, quartiles."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

__all__ = [
    "latency_samples",
    "percentile",
    "quartiles",
    "samples_beyond",
    "supported_tail",
]

#: candidate tail percentiles, highest first
TAILS = (99.9, 99.0, 95.0, 90.0, 75.0)

#: a tail percentile is reported only with this many samples beyond it
MIN_BEYOND = 10


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie strictly beyond percentile ``pct``."""
    return int(math.floor(n * (100.0 - pct) / 100.0 + 1e-9))


def supported_tail(n: int, wanted: float) -> float:
    """The highest candidate percentile ``<= wanted`` that still has
    :data:`MIN_BEYOND` of the ``n`` samples beyond it (the median when
    none has)."""
    for pct in TAILS:
        if pct <= wanted and samples_beyond(n, pct) >= MIN_BEYOND:
            return pct
    return 50.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank-above percentile: the smallest sample with at least
    ``pct`` percent of the samples at or below it. With failed ops
    appended as ``inf`` (see :func:`latency_samples`) the result turns
    ``inf`` as soon as the failures reach into the percentile."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = math.ceil(len(ordered) * pct / 100.0 - 1e-9)
    return ordered[max(rank, 1) - 1]


def latency_samples(served: Sequence[float], failed: int) -> list[float]:
    """Latency samples of every *attempted* op: a failed or shed op
    counts as missing every latency limit, so it enters as ``inf``."""
    return list(served) + [math.inf] * failed


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them (the driver's definition); a single value is its own
    quartiles."""
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q1, med, q3)
