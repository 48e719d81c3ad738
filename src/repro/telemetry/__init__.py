"""Telemetry: metrics registry, in-band network telemetry, and export.

The measurement substrate for the whole stack, in four parts:

- :mod:`.registry` — ``Counter`` / ``Gauge`` / ``Histogram`` instruments
  behind a :class:`MetricsRegistry`; integers only, fixed buckets;
- :mod:`.inband` — INT: programmable elements push per-hop postcards
  (timestamp, queue depth, mode bits, seq) onto marked packets; an
  :class:`IntSink` at the receiving endpoint strips them into the
  registry;
- :mod:`.collect` — the metric catalogue: every component kind's
  counters and gauges declared once, as rows the end-of-run scrape and
  the on-clock sampler both read;
- :mod:`.export` — JSON-lines snapshot writer and the reader shared by
  every JSONL file, rendered by the ``repro telemetry`` CLI;
  :mod:`.benchfmt` — the shared ``BENCH_<name>.json`` benchmark-result
  schema.
"""

from .benchfmt import BenchResult, load_bench_result
from .export import SCHEMA_VERSION, Snapshot, read_snapshot, write_snapshot
from .inband import (
    DEFAULT_MAX_HOPS,
    INT_BASE_BYTES,
    IntDomain,
    IntHeader,
    IntPostcard,
    IntSink,
    POSTCARD_BYTES,
)
from .registry import (
    Counter,
    DEFAULT_LATENCY_BUCKETS_NS,
    DEFAULT_PCT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    TelemetryError,
    quantile_from_buckets,
)

__all__ = [
    "BenchResult",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS_NS",
    "DEFAULT_MAX_HOPS",
    "DEFAULT_PCT_BUCKETS",
    "Gauge",
    "Histogram",
    "INT_BASE_BYTES",
    "IntDomain",
    "IntHeader",
    "IntPostcard",
    "IntSink",
    "MetricsRegistry",
    "POSTCARD_BYTES",
    "SCHEMA_VERSION",
    "Snapshot",
    "TelemetryError",
    "load_bench_result",
    "quantile_from_buckets",
    "read_snapshot",
    "write_snapshot",
]
