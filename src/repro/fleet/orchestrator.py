"""Fleet-scale concurrent runs: hundreds of flows over tens of nodes.

:class:`FleetOrchestrator` is :class:`~repro.integration.multiflow
.MultiFlowOrchestrator` pointed at a :class:`~repro.fleet.farm
.ReceiverFarm` instead of the single-DTN pilot — same alternating DAQ
workload shapes (steady ICEBERG-style elephants on even flows, bursty
synthetic-DUNE events on odd), same per-flow accounting, but the
delivery side is a farm and the run is judged on the farm's axes too:

- per-node packet/byte shares and the Jain fairness index across
  *live* nodes (is the balancer actually balancing?);
- table-update latency (liveness mark → applied table update);
- redirect time-to-recover: after a mid-run node crash, how long until
  the last repair retransmission lands on the windows' new owners;
- per-flow FCT (first → last delivery) and unrecovered counts.

A crash can be scheduled declaratively (``crash_node`` +
``crash_at_ns``) so benchmark and chaos runs stay reproducible: same
seed, same crash instant, byte-identical steering decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from ..core.features import MsgType
from ..integration.multiflow import (
    FlowAggregates,
    MultiFlowOrchestrator,
    jain_fairness,
    nested_config,
)
from ..netsim.units import MILLISECOND, gbps
from .farm import FarmConfig, FarmReport, ReceiverFarm


@dataclass
class FleetConfig:
    """Parameters for one fleet-scale concurrent run."""

    steady_rate_bps: ClassVar[int] = gbps(2)
    event_rate_hz: ClassVar[float] = 50_000.0
    messages_per_event: ClassVar[int] = 3

    nodes: int = 4
    flows: int = 16
    seed: int = 7
    #: Generator window: every flow emits messages in ``[0, duration)``.
    duration_ns: int = 2 * MILLISECOND
    message_bytes: int = 4000
    #: Farm overrides. ``nodes`` and ``flows`` are set here only.
    farm: FarmConfig | None = None
    #: Index of a node to crash mid-run (None = healthy run).
    crash_node: int | None = None
    crash_at_ns: int = 1 * MILLISECOND

    def build_farm_config(self) -> FarmConfig:
        if self.nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {self.nodes}")
        if self.crash_node is not None and not 0 <= self.crash_node < self.nodes:
            raise ValueError(
                f"crash_node {self.crash_node} out of range (valid: 0..{self.nodes - 1})"
            )
        if self.crash_at_ns < 0:
            raise ValueError(f"crash_at_ns must be >= 0, got {self.crash_at_ns}")
        return nested_config(self.farm or FarmConfig(), nodes=self.nodes, flows=self.flows)


@dataclass
class FleetReport(FlowAggregates):
    """What a fleet run measured, per flow, per node, and in aggregate."""

    nodes: int
    farm: FarmReport
    per_node: dict[int, dict[str, int]]
    #: Jain index over per-flow normalized goodput (delivered/offered).
    flow_fairness: float
    #: Jain index over bytes delivered per *live* node.
    node_fairness: float
    #: max − min of per-flow FCTs (first → last delivery).
    fct_ns: dict[int, int] = field(default_factory=dict)
    #: ns from the scheduled crash to the last repair retransmission
    #: delivered anywhere (0 = no crash, or nothing needed repair).
    recovery_ns: int = 0


class FleetOrchestrator(MultiFlowOrchestrator):
    """Drives N concurrent DAQ flows through one shared receiver farm."""

    def __init__(self, config: FleetConfig | None = None) -> None:
        super().__init__(config or FleetConfig())
        self.farm: ReceiverFarm = self.testbed

    def _build_testbed(self) -> ReceiverFarm:
        # The inherited ``_send_fn`` targets ``self.testbed`` — the farm
        # speaks the same ``send_message(size, flow, payload)``.
        return ReceiverFarm(sim=self.sim, config=self.config.build_farm_config())

    def run(self) -> FleetReport:
        cfg = self.config
        for source in self.sources:
            source.start(0)
        if cfg.crash_node is not None:
            self.sim.schedule(cfg.crash_at_ns, self.farm.crash_node, cfg.crash_node)
        farm_report = self.farm.run(control_until_ns=cfg.duration_ns)
        shared, flow_fairness = self._flow_aggregates(farm_report.per_flow)
        fct = {
            fid: row["last_delivery_ns"] - row["first_delivery_ns"]
            for fid, row in farm_report.per_flow.items()
            if row["delivered"]
        }

        recovery_ns = 0
        if cfg.crash_node is not None:
            crashed_at = self.farm.nodes[cfg.crash_node].crashed_at_ns
            if crashed_at is not None:
                repairs = [
                    t
                    for t, msg_type, *_ in self.farm.deliveries
                    if msg_type == MsgType.RETX_DATA and t >= crashed_at
                ]
                recovery_ns = max(repairs, default=crashed_at) - crashed_at

        return FleetReport(
            nodes=cfg.nodes,
            farm=farm_report,
            per_node=farm_report.per_node,
            flow_fairness=flow_fairness,
            node_fairness=jain_fairness(
                [row["bytes_delivered"] for row in farm_report.per_node.values() if row["alive"]]
            ),
            fct_ns=fct,
            recovery_ns=recovery_ns,
            **shared,
        )
