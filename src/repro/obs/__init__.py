"""repro.obs — on-clock sampling, SLO watchdogs, and run reports.

Three layers (see DESIGN §14):

* :class:`Sampler` — self-scheduling engine citizen snapshotting
  gauges into integer ring-buffered time series keyed
  ``(metric, labels)``; exported as schema-versioned JSONL and as
  Perfetto counter tracks merged into the Chrome trace.
* :class:`Watchdog` + :class:`SloRule` — declarative objectives
  evaluated on samples at engine time; violations pin the tracer
  flight recorder and roll into a :class:`HealthReport`.
* :func:`diff_bench` — ratio-based regression/improvement diff of a
  fresh bench result against the committed ``BENCH_*.json`` baseline
  (``repro report``).
"""

from .export import (
    OBS_SCHEMA_VERSION,
    counter_tracks,
    load_series,
    series_digest,
    series_records,
    write_series,
)
from .report import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_REGRESSION,
    BenchDiff,
    DiffRow,
    ReportError,
    diff_bench,
    diff_bench_files,
    render_diff,
)
from .sampler import SampleSeries, Sampler, watch_farm, watch_pilot
from .slo import HealthEvent, HealthReport, SloRule, Watchdog

__all__ = [
    "OBS_SCHEMA_VERSION",
    "EXIT_ERROR",
    "EXIT_OK",
    "EXIT_REGRESSION",
    "BenchDiff",
    "DiffRow",
    "HealthEvent",
    "HealthReport",
    "ReportError",
    "SampleSeries",
    "Sampler",
    "SloRule",
    "Watchdog",
    "counter_tracks",
    "diff_bench",
    "diff_bench_files",
    "load_series",
    "render_diff",
    "series_digest",
    "series_records",
    "watch_farm",
    "watch_pilot",
    "write_series",
]
