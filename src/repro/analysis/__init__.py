"""Metrics, report-table helpers, and campaign sharding."""

from .metrics import (
    AgeOfInformation,
    LatencySummary,
    completion_fraction,
    goodput_bps,
    jains_fairness,
    percentile,
)
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
    fleet_case_metrics,
    incast_case_metrics,
    merge_campaign,
    multiflow_case_metrics,
    run_sharded,
    run_traced_pilot_case,
)
from .tables import ResultTable, format_duration, format_rate
from .tracestats import trace_metrics

__all__ = [
    "AgeOfInformation",
    "FctCollector",
    "FctError",
    "FctSummary",
    "FlowRecord",
    "LatencySummary",
    "ResultTable",
    "ShardError",
    "TracedPilotCase",
    "campaign_digest",
    "fleet_case_metrics",
    "incast_case_metrics",
    "interpolated_percentile",
    "merge_campaign",
    "multiflow_case_metrics",
    "run_sharded",
    "run_traced_pilot_case",
    "completion_fraction",
    "format_duration",
    "format_rate",
    "goodput_bps",
    "jains_fairness",
    "percentile",
    "trace_metrics",
]
