"""Programmable dataplane models (P4 pipelines, Tofino2, Alveo NICs).

This package substitutes for the pilot's hardware (§5.4): a
match-action pipeline abstraction with Tofino-like constraint
enforcement (:mod:`.pipeline`), the MMT in-network programs
(:mod:`.programs`), switch/NIC device models (:mod:`.tofino`,
:mod:`.alveo`), and the ingest testbed with its Fig. 4 egress (:mod:`.pilot`).
"""

from .alveo import ALVEO_LATENCY_NS, ALVEO_STAGES, AlveoNic, U280_HBM_BYTES, U55C_HBM_BYTES
from .element import ElementStats, ProgrammableElement
from .pilot import (
    PILOT_EXPERIMENT,
    IngestConfig,
    IngestTestbed,
    PilotConfig,
    PilotReport,
    PilotTestbed,
)
from .pipeline import (
    Action,
    DROP,
    MatchKind,
    Metadata,
    NOP,
    PacketView,
    Pipeline,
    PipelineError,
    RegisterArray,
    Table,
    TableEntry,
)
from .programs import (
    AGE_EPOCH_META,
    AgeUpdateProgram,
    BackpressureProgram,
    BufferTapProgram,
    DuplicationProgram,
    ModeTransitionProgram,
    NearestBufferProgram,
    Program,
    TransitionRule,
)
from .loadbalancer import BackendState, LoadBalancerError, LoadBalancerProgram
from .segment import SegmentRecoveryProgram, SegmentRecoveryStats
from .tofino import TOFINO2_LATENCY_NS, TOFINO2_STAGES, TofinoSwitch

__all__ = [
    "AGE_EPOCH_META",
    "ALVEO_LATENCY_NS",
    "ALVEO_STAGES",
    "Action",
    "AgeUpdateProgram",
    "AlveoNic",
    "BackpressureProgram",
    "BufferTapProgram",
    "DROP",
    "BackendState",
    "DuplicationProgram",
    "ElementStats",
    "IngestConfig",
    "IngestTestbed",
    "LoadBalancerError",
    "LoadBalancerProgram",
    "MatchKind",
    "Metadata",
    "ModeTransitionProgram",
    "NOP",
    "NearestBufferProgram",
    "PILOT_EXPERIMENT",
    "PacketView",
    "PilotConfig",
    "PilotReport",
    "PilotTestbed",
    "Pipeline",
    "PipelineError",
    "Program",
    "ProgrammableElement",
    "RegisterArray",
    "SegmentRecoveryProgram",
    "SegmentRecoveryStats",
    "TOFINO2_LATENCY_NS",
    "TOFINO2_STAGES",
    "Table",
    "TableEntry",
    "TofinoSwitch",
    "TransitionRule",
    "U280_HBM_BYTES",
    "U55C_HBM_BYTES",
]
