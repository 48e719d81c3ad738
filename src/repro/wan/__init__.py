"""WAN substrate: circuits, the ESnet backbone, and end-to-end scenarios."""

from .circuits import CircuitError, CircuitManager, Reservation
from .esnet import EsnetBackbone, POPS, SITES, TRUNKS_KM, build_esnet
from .scenarios import (
    MultimodalScenario,
    SCENARIO_EXPERIMENT,
    ScenarioConfig,
    ScenarioResult,
    TodayScenario,
)

__all__ = [
    "CircuitError",
    "CircuitManager",
    "EsnetBackbone",
    "MultimodalScenario",
    "Reservation",
    "SCENARIO_EXPERIMENT",
    "ScenarioConfig",
    "ScenarioResult",
    "TodayScenario",
    "POPS",
    "SITES",
    "TRUNKS_KM",
    "build_esnet",
]
