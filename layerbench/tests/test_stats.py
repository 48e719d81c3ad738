import pytest

from layerbench.stats import (
    digest,
    goodput_window,
    percentile,
    tail_percentile,
)


@pytest.mark.parametrize(
    "count, expected",
    [
        (16_000, 99.9),  # 16 samples beyond p99.9, 1.6 beyond p99.99
        (256, 95.0),     # 12.8 beyond p95, 2.56 beyond p99
        (128, 90.0),     # 12.8 beyond p90, 6.4 beyond p95
        (200, 95.0),     # exactly 10 beyond p95
        (199, 90.0),     # 9.95 beyond p95: one short
        (100, 90.0),
        (40, 75.0),
        (20, 50.0),
        (5, 50.0),       # nothing supports a tail: the median is all there is
    ],
)
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_percentile_is_nearest_rank_and_returns_a_sample():
    samples = [50, 10, 40, 20, 30]
    assert percentile(samples, 50) == 30
    assert percentile(samples, 90) == 50
    assert percentile(samples, 0) == 10
    assert percentile(list(range(1, 1001)), 99.9) == 999
    with pytest.raises(ValueError):
        percentile([], 50)


def test_digest_ignores_key_order_and_sees_every_value():
    a = {"report": {"delivered": 800, "naks": 0}, "latencies_ns": [1, 2, 3]}
    b = {"latencies_ns": [1, 2, 3], "report": {"naks": 0, "delivered": 800}}
    assert digest(a) == digest(b)
    assert digest(a) != digest({**a, "latencies_ns": [1, 2, 4]})
    # Pinned: the canonical form must not drift between Python versions.
    assert digest({"b": [1.5, None], "a": 1}) == (
        "993a7a2ceb877d40fc4b026f38d1b9d56ea47505ed09b616e4ac8f06d00883b0"
    )


def test_goodput_window_stops_at_the_98th_percent_delivery():
    # 100 messages of 10 bytes, one per ns; two stragglers far out.
    deliveries = [(t, 10) for t in range(1, 99)] + [(5_000, 10), (9_000, 10)]
    assert goodput_window(deliveries) == (980, 98)
    assert goodput_window(deliveries, fraction=1.0) == (1000, 9_000)
    # Order of arrival in the list does not matter.
    assert goodput_window(list(reversed(deliveries))) == (980, 98)
