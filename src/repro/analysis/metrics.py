"""Measurement helpers: nearest-rank percentiles and latency summaries.

All latency inputs are integer nanoseconds; summaries report in the
same unit (callers convert for display). Percentiles use the
nearest-rank method so results are exact values from the sample, never
interpolated artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def percentile(samples: list[int] | list[float], fraction: float) -> float:
    """Nearest-rank percentile; ``fraction`` in [0, 1]."""
    if not samples:
        raise ValueError("percentile of empty sample set")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return float(ordered[rank - 1])


@dataclass(frozen=True)
class LatencySummary:
    """Five-number latency summary (ns)."""

    count: int
    min_ns: float
    p50_ns: float
    p95_ns: float
    p99_ns: float
    max_ns: float
    mean_ns: float

    @classmethod
    def of(cls, samples: list[int]) -> "LatencySummary":
        if not samples:
            raise ValueError("cannot summarize zero samples")
        return cls(
            count=len(samples),
            min_ns=float(min(samples)),
            p50_ns=percentile(samples, 0.50),
            p95_ns=percentile(samples, 0.95),
            p99_ns=percentile(samples, 0.99),
            max_ns=float(max(samples)),
            mean_ns=sum(samples) / len(samples),
        )
