"""Unit conversions: exactness and edge cases."""

import pytest
from hypothesis import given, strategies as st

from repro.netsim import units


def test_second_constants():
    assert units.SECOND == 1_000_000_000
    assert units.MILLISECOND * 1000 == units.SECOND
    assert units.MICROSECOND * 1000 == units.MILLISECOND


def test_seconds_conversion():
    assert units.seconds(1.5) == 1_500_000_000
    assert units.milliseconds(2) == 2_000_000
    assert units.microseconds(3) == 3_000


def test_rate_helpers():
    assert units.gbps(100) == 100_000_000_000
    assert units.tbps(1.5) == 1_500_000_000_000


def test_transmission_time_exact():
    # 1500 bytes at 1 Gb/s is exactly 12 us.
    assert units.transmission_time_ns(1500, units.gbps(1)) == 12_000


def test_transmission_time_rounds_up():
    # 1 byte at 3 bits/ns-equivalent rates must never round to "early".
    assert units.transmission_time_ns(1, 3_000_000_000) == 3  # 8/3 -> 3
    assert units.transmission_time_ns(0, units.gbps(1)) == 0


def test_transmission_time_rejects_bad_input():
    with pytest.raises(ValueError):
        units.transmission_time_ns(100, 0)
    with pytest.raises(ValueError):
        units.transmission_time_ns(-1, 1000)


def test_throughput_inverse_of_transmission():
    rate = units.gbps(10)
    t = units.transmission_time_ns(9000, rate)
    measured = 9000 * 8 * units.SECOND / t
    assert measured == pytest.approx(rate, rel=0.01)


@given(size=st.integers(1, 10**9), rate=st.integers(1, 10**13))
def test_transmission_time_never_early(size, rate):
    t = units.transmission_time_ns(size, rate)
    # Exact ceiling in integer arithmetic: t*rate covers the bits, and
    # one ns less would not.
    bits_scaled = size * 8 * units.SECOND
    assert t * rate >= bits_scaled
    assert (t - 1) * rate < bits_scaled


@given(value=st.floats(0, 1e6, allow_nan=False))
def test_seconds_roundtrip_within_ns(value):
    assert abs(units.seconds(value) / units.SECOND - value) < 1e-9
