"""Small exact statistics the benchmark reports with.

Everything here is integer/rank arithmetic on purpose: the ``sim_*``
metrics must repeat bit-for-bit for a seed, so no interpolation and no
float accumulation order can creep into them.
"""

from __future__ import annotations

import hashlib
import json
import math

#: Candidate tail percentiles, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)

#: A tail percentile is only reported when at least this many samples
#: lie beyond it (choosing-metrics guide, section 1).
MIN_BEYOND = 10


def percentile(samples, pct: float):
    """Nearest-rank percentile (``pct`` in 0..100) — returns a sample."""
    if not samples:
        raise ValueError("percentile of an empty sample set")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct * len(ordered) / 100.0))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(count: int) -> float:
    """Highest ladder percentile with ``>= MIN_BEYOND`` samples beyond it.

    16 000 samples support p99.9 (16 beyond), 256 support p95 (12.8),
    128 support p90 (12.8). Fewer than 20 samples support nothing past
    the median, which is what is returned.
    """
    best = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if count * (100.0 - pct) / 100.0 >= MIN_BEYOND:
            best = pct
    return best


#: Share of the messages whose delivery closes the goodput window.
GOODPUT_FRACTION = 0.98


def goodput_window(deliveries, fraction: float = GOODPUT_FRACTION) -> tuple[int, int]:
    """``(payload bytes, span ns)`` from t=0 to the delivery completing
    ``fraction`` of the messages; ``deliveries`` is ``[(time ns, bytes)]``.

    First-send → *last*-delivery would let the one latest loss repair set
    the whole metric (on ``pilot_observed`` it moves goodput by 40 %
    between seeds); the last 2 % are left to ``sim_latency_tail_us``.
    """
    ordered = sorted(deliveries)
    kept = ordered[: max(1, math.ceil(fraction * len(ordered)))]
    return sum(size for _time, size in kept), kept[-1][0]


def digest(material) -> str:
    """sha256 over canonical JSON (sorted keys, no whitespace)."""
    payload = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()
