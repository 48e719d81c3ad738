"""Metrics, report-table helpers, and campaign sharding."""

from .metrics import LatencySummary, percentile
from .fct import (
    FctCollector,
    FctError,
    FctSummary,
    FlowRecord,
    interpolated_percentile,
)
from .shard import (
    ShardError,
    TracedPilotCase,
    campaign_digest,
    incast_case_metrics,
    merge_campaign,
    multiflow_case_metrics,
    run_sharded,
    run_traced_pilot_case,
)
from .tables import ResultTable, format_duration, format_rate
from .tracestats import trace_metrics

__all__ = [
    "FctCollector",
    "FctError",
    "FctSummary",
    "FlowRecord",
    "LatencySummary",
    "ResultTable",
    "ShardError",
    "TracedPilotCase",
    "campaign_digest",
    "incast_case_metrics",
    "interpolated_percentile",
    "merge_campaign",
    "multiflow_case_metrics",
    "run_sharded",
    "run_traced_pilot_case",
    "format_duration",
    "format_rate",
    "percentile",
    "trace_metrics",
]
