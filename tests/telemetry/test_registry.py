"""Registry semantics: counters, gauges, histograms, disabled mode."""

import pytest

from repro.telemetry import (
    DEFAULT_LATENCY_BUCKETS_NS,
    DEFAULT_PCT_BUCKETS,
    MetricsRegistry,
    NULL_REGISTRY,
    TelemetryError,
    quantile_from_buckets,
)


# -- counters ----------------------------------------------------------------


def test_counter_monotonicity():
    reg = MetricsRegistry()
    c = reg.counter("events_total")
    c.inc()
    c.inc(5)
    assert c.value == 6
    with pytest.raises(TelemetryError, match="cannot decrease"):
        c.inc(-1)
    assert c.value == 6  # the failed inc must not corrupt the count


def test_counter_set_total_is_idempotent_but_monotonic():
    reg = MetricsRegistry()
    c = reg.counter("scraped_total")
    c.set_total(10)
    c.set_total(10)  # idempotent re-scrape
    c.set_total(12)
    assert c.value == 12
    with pytest.raises(TelemetryError, match="cannot decrease"):
        c.set_total(9)


def test_same_identity_returns_same_instrument():
    reg = MetricsRegistry()
    a = reg.counter("rx_total", host="dtn1")
    b = reg.counter("rx_total", host="dtn1")
    c = reg.counter("rx_total", host="dtn2")
    assert a is b
    assert a is not c
    assert len(reg) == 2


def test_kind_collision_rejected():
    reg = MetricsRegistry()
    reg.counter("x")
    reg.gauge("x")  # different kind => different identity, allowed
    assert len(reg) == 2


# -- gauges ------------------------------------------------------------------


def test_gauge_tracks_peak():
    reg = MetricsRegistry()
    g = reg.gauge("queue_bytes")
    g.set(10)
    g.inc(5)
    g.dec(12)
    assert g.value == 3
    assert g.peak == 15
    g.set_max(4)  # larger than current value: takes effect
    assert g.value == 4
    g.set_max(2)  # smaller: ignored
    assert g.value == 4
    assert g.peak == 15


# -- histograms --------------------------------------------------------------


def test_histogram_bucket_boundaries_inclusive():
    reg = MetricsRegistry()
    h = reg.histogram("lat", buckets=(10, 20, 50))
    h.observe_many([10, 11, 20, 21, 50])
    # Upper bounds are inclusive: 10 -> first bucket, 11 -> second, ...
    assert h.counts == [1, 2, 2]
    assert h.overflow == 0
    h.observe(51)
    assert h.overflow == 1
    assert (h.count, h.sum, h.min, h.max) == (6, 163, 10, 51)


def loop_bucket_index(buckets, value):
    """The scan ``Histogram.observe`` did before it bisected; None = overflow."""
    for i, bound in enumerate(buckets):
        if value <= bound:
            return i
    return None


@pytest.mark.parametrize(
    "buckets",
    [(0,), (7,), (-5, 0, 5), (10, 20, 50), DEFAULT_PCT_BUCKETS, DEFAULT_LATENCY_BUCKETS_NS],
)
def test_bisected_bucket_is_the_scanned_bucket(buckets):
    values = {-(2**40), -1, 0, 1, 2**70}
    for bound in buckets:
        values |= {bound - 1, bound, bound + 1}
    for value in sorted(values):
        h = MetricsRegistry().histogram("h", buckets=buckets)
        h.observe(value)
        want = loop_bucket_index(buckets, value)
        expected = [int(i == want) for i in range(len(buckets))]
        assert (h.counts, h.overflow) == (expected, int(want is None)), (buckets, value)
        assert (h.count, h.sum, h.min, h.max) == (1, value, value, value)


def test_histogram_rejects_bad_buckets():
    reg = MetricsRegistry()
    with pytest.raises(TelemetryError, match="at least one bucket"):
        reg.histogram("empty", buckets=())
    with pytest.raises(TelemetryError, match="ascending"):
        reg.histogram("unsorted", buckets=(5, 2))
    with pytest.raises(TelemetryError, match="ascending"):
        reg.histogram("dupes", buckets=(5, 5))
    with pytest.raises(TelemetryError, match="float"):
        reg.histogram("floaty", buckets=(1, 2.5))


def test_histogram_quantiles_report_bucket_upper_bounds():
    reg = MetricsRegistry()
    h = reg.histogram("lat", buckets=(10, 20, 50))
    assert h.quantile(0.5) is None  # empty
    h.observe_many([1, 1, 1, 15, 45])
    assert h.quantile(0.0) == 10
    assert h.quantile(0.5) == 10
    assert h.quantile(0.8) == 20
    assert h.quantile(1.0) == 50
    with pytest.raises(TelemetryError):
        h.quantile(1.5)


def test_quantile_overflow_uses_observed_max():
    buckets = [(10, 0), (20, 1)]
    assert quantile_from_buckets(buckets, overflow=9, count=10, q=0.99,
                                 observed_max=777) == 777
    assert quantile_from_buckets(buckets, overflow=9, count=10, q=0.99) == 20


def test_default_latency_buckets_are_ints():
    assert all(isinstance(b, int) for b in DEFAULT_LATENCY_BUCKETS_NS)
    assert list(DEFAULT_LATENCY_BUCKETS_NS) == sorted(set(DEFAULT_LATENCY_BUCKETS_NS))


# -- disabled mode -----------------------------------------------------------


def test_disabled_registry_hands_out_shared_noops():
    reg = MetricsRegistry(enabled=False)
    c1 = reg.counter("a")
    c2 = reg.counter("b", host="x")
    assert c1 is c2  # one shared null object, no allocation per call
    c1.inc(1000)
    c1.set_total(5)
    assert c1.value == 0

    g = reg.gauge("g")
    g.set(9)
    g.inc()
    g.set_max(99)
    assert g.value == 0 and g.peak == 0

    h = reg.histogram("h")
    h.observe(123)
    h.observe_many([1, 2, 3])
    assert h.count == 0

    assert len(reg) == 0
    assert reg.snapshot() == []


def test_null_registry_is_disabled():
    assert not NULL_REGISTRY.enabled
    NULL_REGISTRY.counter("anything").inc()
    assert len(NULL_REGISTRY) == 0


# -- snapshot ----------------------------------------------------------------


def test_snapshot_is_sorted_and_json_able():
    import json

    reg = MetricsRegistry()
    reg.counter("z_total").inc(3)
    reg.counter("a_total", host="b").inc(1)
    reg.counter("a_total", host="a").inc(2)
    reg.gauge("depth").set(7)
    reg.histogram("lat", buckets=(10,)).observe(4)
    snap = reg.snapshot()
    names = [(m["name"], m["labels"]) for m in snap]
    assert names == sorted(names, key=lambda t: (t[0], sorted(t[1].items())))
    parsed = json.loads(json.dumps(snap))
    assert parsed == snap


def test_registry_get_looks_up_without_creating():
    reg = MetricsRegistry()
    assert reg.get("counter", "missing") is None
    assert len(reg) == 0
    c = reg.counter("present", host="h")
    assert reg.get("counter", "present", host="h") is c
