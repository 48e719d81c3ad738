"""The metrics registry: counters, gauges, and fixed-bucket histograms.

Any component can instrument against a :class:`MetricsRegistry` — the
measurement substrate the performance work builds on. Design rules:

- **integers only** — metric values, gauge readings, and histogram
  bucket boundaries are all ints, so nothing here could not live in a
  P4 register (the same no-floats discipline the dataplane enforces);
- **fixed buckets** — histograms take their bucket boundaries at
  construction and never rebalance, exactly like hardware counters and
  Prometheus classic histograms, so snapshots from different runs are
  directly comparable;
- **no registry, no cost** — a testbed built without telemetry has no
  registry at all (``metrics is None``), so nothing is counted.

Instruments are identified by ``(name, labels)``; asking twice for the
same identity returns the same object, so callers can cache instruments
at setup time and skip the registry lookup on the hot path.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator

LabelKey = tuple[tuple[str, str], ...]


class TelemetryError(RuntimeError):
    """Raised for misuse of the telemetry subsystem."""


def label_key(labels: dict[str, object]) -> LabelKey:
    """A label set's identity: sorted ``(key, str(value))`` pairs."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


#: Default histogram boundaries for nanosecond latencies: roughly
#: logarithmic from 1 us to 10 s (integer ns, upper bounds inclusive).
DEFAULT_LATENCY_BUCKETS_NS: tuple[int, ...] = (
    1_000, 2_000, 5_000,
    10_000, 20_000, 50_000,
    100_000, 200_000, 500_000,
    1_000_000, 2_000_000, 5_000_000,
    10_000_000, 20_000_000, 50_000_000,
    100_000_000, 200_000_000, 500_000_000,
    1_000_000_000, 10_000_000_000,
)

#: Default boundaries for percentage-valued samples (queue occupancy).
DEFAULT_PCT_BUCKETS: tuple[int, ...] = (0, 1, 2, 5, 10, 25, 50, 75, 90, 100)


class Metric:
    """Base class: identity plus the snapshot interface."""

    kind = "metric"

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self._labels = labels

    @property
    def labels(self) -> dict[str, str]:
        return dict(self._labels)

    def to_dict(self) -> dict:
        raise NotImplementedError


class Counter(Metric):
    """A monotonically increasing integer."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelKey) -> None:
        super().__init__(name, labels)
        self._value = 0

    @property
    def value(self) -> int:
        return self._value

    def inc(self, delta: int = 1) -> None:
        if delta < 0:
            raise TelemetryError(f"counter {self.name!r} cannot decrease ({delta})")
        self._value += delta

    def set_total(self, total: int) -> None:
        """Set the absolute count (scrape path); must not go backwards."""
        if total < self._value:
            raise TelemetryError(
                f"counter {self.name!r} cannot decrease ({self._value} -> {total})"
            )
        self._value = total

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "labels": self.labels,
            "value": self._value,
        }


class Gauge(Metric):
    """An integer that can go up and down; tracks its high-water mark."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelKey) -> None:
        super().__init__(name, labels)
        self._value = 0
        self._peak = 0

    @property
    def value(self) -> int:
        return self._value

    @property
    def peak(self) -> int:
        """Highest value ever set (high-water mark)."""
        return self._peak

    def set(self, value: int) -> None:
        self._value = value
        if value > self._peak:
            self._peak = value

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "labels": self.labels,
            "value": self._value,
            "peak": self._peak,
        }


class Histogram(Metric):
    """Fixed-bucket integer histogram.

    ``buckets`` are inclusive upper bounds in ascending order; samples
    above the last bound land in an overflow bucket. Quantiles are
    answered from bucket counts (the bound of the bucket where the
    cumulative count crosses the rank), so they are conservative upper
    bounds — the resolution the buckets give, no more.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: LabelKey,
        buckets: tuple[int, ...] = DEFAULT_LATENCY_BUCKETS_NS,
    ) -> None:
        super().__init__(name, labels)
        if not buckets:
            raise TelemetryError(f"histogram {self.name!r} needs at least one bucket")
        if list(buckets) != sorted(set(buckets)):
            raise TelemetryError(
                f"histogram {self.name!r} buckets must be strictly ascending"
            )
        for bound in buckets:
            if isinstance(bound, float):
                raise TelemetryError(
                    f"histogram {self.name!r}: float bucket bound {bound}"
                )
        self.buckets = tuple(buckets)
        self.counts = [0] * len(buckets)
        self.overflow = 0
        self.count = 0
        self.sum = 0
        self.min: int | None = None
        self.max: int | None = None

    def observe(self, value: int) -> None:
        value = int(value)
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        # Bounds are inclusive upper bounds: the first with value <= bound
        # is bisect_left's answer; past the last one is the overflow bucket.
        try:
            self.counts[bisect_left(self.buckets, value)] += 1
        except IndexError:
            self.overflow += 1

    def observe_many(self, values) -> None:
        for value in values:
            self.observe(value)

    def quantile(self, q: float) -> int | None:
        """Upper bound of the bucket holding the q-quantile sample."""
        return quantile_from_buckets(
            list(zip(self.buckets, self.counts)), self.overflow, self.count, q,
            observed_max=self.max,
        )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "labels": self.labels,
            "buckets": [[bound, count] for bound, count in zip(self.buckets, self.counts)],
            "overflow": self.overflow,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }


def quantile_from_buckets(
    buckets: list[tuple[int, int]] | list[list[int]],
    overflow: int,
    count: int,
    q: float,
    observed_max: int | None = None,
) -> int | None:
    """Quantile from ``[(upper_bound, count), ...]`` plus an overflow count.

    Works on live histograms and on snapshot dicts alike. Returns None
    for an empty histogram; overflow-resident quantiles report the
    observed max when known (else the last bound).
    """
    if count <= 0:
        return None
    if not 0.0 <= q <= 1.0:
        raise TelemetryError(f"quantile must be in [0, 1], got {q}")
    rank = max(1, round(q * count))
    cumulative = 0
    last_bound = None
    for bound, bucket_count in buckets:
        last_bound = bound
        cumulative += bucket_count
        if cumulative >= rank:
            return bound
    if observed_max is not None:
        return observed_max
    return last_bound


class MetricsRegistry:
    """Instrument factory and snapshot source: one registry per run (or
    per component under test)."""

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, str, LabelKey], Metric] = {}

    # -- instrument factories ------------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self, name: str, buckets: tuple[int, ...] = DEFAULT_LATENCY_BUCKETS_NS, **labels
    ) -> Histogram:
        return self._get(Histogram, name, labels, buckets=buckets)

    def _get(self, cls, name: str, labels: dict, **options) -> Metric:
        key = (cls.kind, name, label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = cls(name, key[2], **options)
        return metric

    # -- inspection ------------------------------------------------------------

    def collect(self) -> Iterator[Metric]:
        """All registered instruments, in registration order."""
        return iter(self._metrics.values())

    def snapshot(self) -> list[dict]:
        """JSON-able dicts for every instrument (sorted for stability)."""
        return sorted(
            (metric.to_dict() for metric in self._metrics.values()),
            key=lambda d: (d["name"], sorted(d["labels"].items()), d["kind"]),
        )

    def __len__(self) -> int:
        return len(self._metrics)
