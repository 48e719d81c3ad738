"""Integrated-research-infrastructure scenarios (Req 10)."""

from .incast import (
    IncastConfig,
    IncastError,
    IncastReport,
    grid_configs,
    run_grid,
    run_incast,
    small_grid,
)
from .multiflow import (
    MultiFlowConfig,
    MultiFlowOrchestrator,
    MultiFlowReport,
    jain_fairness,
)
from .supernova import (
    ALERT_TOPIC,
    CANDIDATE_BYTES,
    SupernovaConfig,
    SupernovaResult,
    SupernovaScenario,
    compare,
)

__all__ = [
    "ALERT_TOPIC",
    "CANDIDATE_BYTES",
    "IncastConfig",
    "IncastError",
    "IncastReport",
    "MultiFlowConfig",
    "MultiFlowOrchestrator",
    "MultiFlowReport",
    "SupernovaConfig",
    "SupernovaResult",
    "SupernovaScenario",
    "compare",
    "grid_configs",
    "jain_fairness",
    "run_grid",
    "run_incast",
    "small_grid",
]
