"""Sample statistics the benchmark reports (stdlib only)."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``fraction`` of all samples at or below it. ``inf`` samples (failed
    requests) sort last, so a failure counts as over any limit."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def highest_supported_percentile(n_samples: int) -> float:
    """The highest of p50/p95/p99 that leaves at least ten samples
    beyond it (choosing-metrics: report no percentile the sample cannot
    support)."""
    for fraction in (0.99, 0.95):
        if n_samples * (1.0 - fraction) >= 10:
            return fraction
    return 0.5


def quartiles(samples: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single sample is its own quartiles."""
    if len(samples) < 2:
        return (samples[0],) * 3
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


def spread(samples: Sequence[float]) -> float:
    """Interquartile distance as a share of the median - the repeat
    criterion the driver applies to ten runs."""
    q1, q2, q3 = quartiles(samples)
    return (q3 - q1) / q2 if q2 else math.inf


def over_limit_fraction(samples: Sequence[float], limit: float) -> float:
    return sum(1 for value in samples if value > limit) / len(samples)


def lateness_ms(due: Sequence[float], sent: Sequence[float]) -> list[float]:
    """How late the generator sent each request against its schedule
    (never negative: an early send is on time)."""
    if len(due) != len(sent):
        raise ValueError("due and sent differ in length")
    return [max(0.0, (s - d) * 1e3) for d, s in zip(due, sent)]
