"""Concurrent multi-flow pilot runs over one shared topology.

Real research infrastructure never carries one elephant at a time: the
shared DTN and its in-network buffers serve ICEBERG full-stream
readout *and* synthetic-DUNE event bursts simultaneously (§5.4 ran the
pilot per-stream; this module is the concurrent generalization the
paper's Req 5 — "flow-aware processing" — calls for). The
:class:`MultiFlowOrchestrator` launches N tagged senders over a single
:class:`~repro.dataplane.pilot.PilotTestbed`, alternating DAQ workload
shapes per flow:

- even flows: :class:`~repro.daq.generators.SteadyReadout` — the
  clock-driven ICEBERG-style elephant;
- odd flows: :class:`~repro.daq.generators.PoissonEvents` — bursty
  synthetic-DUNE physics events.

The shared DTN 1 relay serves its uplink with deficit round robin (see
:class:`~repro.netsim.queues.DrrScheduler`), and the run is judged on
exactly the axes a shared facility cares about: aggregate goodput,
per-flow completion-time spread, and the Jain fairness index over
per-flow *normalized* goodput (delivered/offered, so a small flow that
gets everything through counts as perfectly served, not starved).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..daq.generators import DaqStreamSource, PoissonEvents, SteadyReadout, TrafficProcess
from ..dataplane.pilot import PilotConfig, PilotReport, PilotTestbed
from ..netsim.engine import Simulator
from ..netsim.units import MILLISECOND, SECOND, gbps


def jain_fairness(values: list[float]) -> float:
    """Jain's fairness index ``(Σx)² / (n·Σx²)`` — 1.0 is perfectly
    fair, 1/n is one flow taking everything. Empty/all-zero input is
    degenerate (nobody was served *unequally*): returns 1.0."""
    xs = [float(v) for v in values]
    if not xs or all(x == 0.0 for x in xs):
        return 1.0
    return (sum(xs) ** 2) / (len(xs) * sum(x * x for x in xs))


@dataclass
class MultiFlowConfig:
    """Parameters for one concurrent multi-flow run."""

    flows: int = 4
    seed: int = 7
    #: Generator window: every flow emits messages in ``[0, duration)``.
    duration_ns: int = 2 * MILLISECOND
    message_bytes: int = 4000
    #: Per-flow offered rate of the steady (ICEBERG-style) flows.
    steady_rate_bps: int = gbps(5)
    #: Event rate of the bursty (synthetic-DUNE) flows.
    event_rate_hz: float = 100_000.0
    messages_per_event: int = 3
    #: Pilot overrides; ``flows`` here always wins. ``None`` builds the
    #: default pilot (local WAN delay, lossless) with ``flows`` flows.
    pilot: PilotConfig | None = None

    def build_pilot_config(self) -> PilotConfig:
        cfg = self.pilot or PilotConfig()
        cfg.flows = self.flows
        return cfg


@dataclass
class FlowAggregates:
    """The per-flow judgment axes every concurrent run reports."""

    flows: int
    duration_ns: int
    #: flow_id → bytes the generator actually offered.
    offered_bytes: dict[int, int]
    #: flow_id → the testbed's per-flow accounting row.
    per_flow: dict[int, dict[str, int]]
    #: Bits/s of delivered payload over the span to the last delivery.
    aggregate_goodput_bps: float
    #: max − min of per-flow last-delivery times.
    completion_spread_ns: int

    @property
    def complete(self) -> bool:
        """Every flow delivered everything it relayed, nothing given up."""
        return all(
            row["unrecovered"] == 0 and row["delivered"] >= row["relayed"]
            for row in self.per_flow.values()
        )


@dataclass
class MultiFlowReport(FlowAggregates):
    """What a concurrent run measured, per flow and in aggregate."""

    pilot: PilotReport
    #: Jain index over per-flow normalized goodput (delivered/offered).
    fairness: float


class MultiFlowOrchestrator:
    """Drives N concurrent DAQ flows through one shared pilot build."""

    def __init__(self, config: MultiFlowConfig | None = None) -> None:
        self.config = cfg = config or MultiFlowConfig()
        self.sim = Simulator(seed=cfg.seed)
        self.testbed = self._build_testbed()
        self.sources: list[DaqStreamSource] = [
            DaqStreamSource(
                self.sim,
                self.process_for(fid),
                self._send_fn(fid),
                cfg.duration_ns,
                rng_name=f"mmt-flow-{fid}",
            )
            for fid in range(cfg.flows)
        ]

    def _build_testbed(self):
        """The shared ingest every source sends into (subclass hook)."""
        return PilotTestbed(sim=self.sim, config=self.config.build_pilot_config())

    def process_for(self, flow_id: int) -> TrafficProcess:
        """The workload shape assigned to a flow (see module docstring)."""
        cfg = self.config
        if flow_id % 2 == 0:
            return SteadyReadout(cfg.steady_rate_bps, cfg.message_bytes)
        return PoissonEvents(
            cfg.event_rate_hz,
            messages_per_event=cfg.messages_per_event,
            message_bytes=cfg.message_bytes,
        )

    def _send_fn(self, flow_id: int):
        def send(size_bytes: int, payload: bytes | None, kind: str) -> None:
            self.testbed.send_message(size_bytes, flow=flow_id, payload=payload)

        return send

    def _flow_aggregates(self, per_flow: dict[int, dict[str, int]]):
        """The :class:`FlowAggregates` fields of a finished run, plus the
        Jain index over per-flow normalized goodput."""
        flows = range(self.config.flows)
        offered = {fid: self.sources[fid].bytes_emitted for fid in flows}
        normalized = [
            per_flow[fid]["bytes_delivered"] / offered[fid] if offered[fid] else 0.0
            for fid in flows
        ]
        last_deliveries = [
            per_flow[fid]["last_delivery_ns"] for fid in flows if per_flow[fid]["delivered"]
        ]
        total_bytes = sum(row["bytes_delivered"] for row in per_flow.values())
        span_ns = max(last_deliveries) if last_deliveries else 0
        shared = dict(
            flows=self.config.flows,
            duration_ns=self.config.duration_ns,
            offered_bytes=offered,
            per_flow=per_flow,
            aggregate_goodput_bps=total_bytes * 8 * SECOND / span_ns if span_ns else 0.0,
            completion_spread_ns=span_ns - min(last_deliveries, default=0),
        )
        return shared, jain_fairness(normalized)

    def run(self) -> MultiFlowReport:
        for source in self.sources:
            source.start(0)
        pilot_report = self.testbed.run()
        shared, fairness = self._flow_aggregates(
            pilot_report.per_flow or self.testbed.flow_report()
        )
        return MultiFlowReport(pilot=pilot_report, fairness=fairness, **shared)
