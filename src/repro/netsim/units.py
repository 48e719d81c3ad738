"""Time, rate, and size units used throughout the simulator.

The simulator runs on an **integer nanosecond** clock. Using integers
(rather than float seconds) keeps event ordering exact and runs fully
deterministic across platforms. All public APIs that accept a duration
take integer nanoseconds; the helpers here convert from human units.

Rates are expressed in bits per second (``int``), sizes in bytes.
"""

from __future__ import annotations

# Integer nanosecond multipliers.
NANOSECOND = 1
MICROSECOND = 1_000
MILLISECOND = 1_000_000
SECOND = 1_000_000_000

# Common rate constants (bits per second).
KBPS = 1_000
MBPS = 1_000_000
GBPS = 1_000_000_000
TBPS = 1_000_000_000_000


def seconds(value: float) -> int:
    """Convert seconds to integer nanoseconds (rounded to nearest)."""
    return round(value * SECOND)


def milliseconds(value: float) -> int:
    """Convert milliseconds to integer nanoseconds (rounded to nearest)."""
    return round(value * MILLISECOND)


def microseconds(value: float) -> int:
    """Convert microseconds to integer nanoseconds (rounded to nearest)."""
    return round(value * MICROSECOND)


def gbps(value: float) -> int:
    """Convert gigabits per second to integer bits per second."""
    return round(value * GBPS)


def tbps(value: float) -> int:
    """Convert terabits per second to integer bits per second."""
    return round(value * TBPS)


def transmission_time_ns(size_bytes: int, rate_bps: int) -> int:
    """Time to serialize ``size_bytes`` onto a link of ``rate_bps``.

    Uses ceiling division so a packet never finishes "early"; a zero or
    negative rate is a programming error.
    """
    if rate_bps <= 0:
        raise ValueError(f"rate must be positive, got {rate_bps}")
    if size_bytes < 0:
        raise ValueError(f"size must be non-negative, got {size_bytes}")
    bits = size_bytes * 8
    return (bits * SECOND + rate_bps - 1) // rate_bps
