"""The multi-domain supernova early-warning scenario (§1, §3 Req 10).

"A supernova burst detected in DUNE would alert Vera Rubin on where to
expect photons to arrive from — since neutrinos escape the collapsing
star before photons are emitted." The time budget is the
neutrino-to-photon lead time: about a minute at minimum.

Two dataflows are compared:

- **today** (store-and-forward): neutrino-candidate records ride the
  normal pipeline — UDP to the site DTN, tuned TCP across the WAN to
  the HPC facility — and only *there* does burst detection run; the
  alert then crosses another WAN to the telescope over TCP.
- **multi-modal**: candidate summaries (trigger primitives) stream in
  MMT; the WAN element *duplicates* them toward an alert broker near
  the telescope, burst detection runs on the fresh copy, and the
  pointing alert is one short hop away — no storage detour, no
  termination overhead.

Both runs use identical physics (same seeded candidate process, same
burst instant), so the measured difference is pure transport/dataflow.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..baselines.tcp import TcpStack
from ..baselines.tuning import tuned_100g
from ..core.endpoint import MmtStack
from ..core.header import make_experiment_id
from ..core.modes import extended_registry
from ..daq.alerts import BurstDetector, SupernovaAlert
from ..dataplane.alveo import AlveoNic
from ..dataplane.programs import (
    AgeUpdateProgram,
    BufferTapProgram,
    DuplicationProgram,
    ModeTransitionProgram,
    TransitionRule,
)
from ..dataplane.tofino import TofinoSwitch
from ..netsim.engine import Simulator
from ..netsim.topology import Topology
from ..netsim.units import MICROSECOND, MILLISECOND, SECOND, gbps

DUNE_EXPERIMENT = 2
CANDIDATE_BYTES = 256  # a trigger primitive: channel, time, charge
ALERT_TOPIC = "snb-pointing"
#: Every hop of both dataflows is 100 GbE.
LINK_RATE_BPS = gbps(100)


@dataclass
class SupernovaConfig:
    """Scenario knobs."""

    #: Background (radiological) candidate rate before the burst.
    background_rate_hz: float = 100.0
    #: Candidate rate during the burst window.
    burst_rate_hz: float = 20_000.0
    burst_start_ns: int = 2 * SECOND
    burst_duration_ns: int = 1 * SECOND
    #: Trigger: ``threshold`` candidates within ``window_ns``.
    trigger_window_ns: int = 200 * MILLISECOND
    trigger_threshold: int = 50
    #: One-way delays: detector site → HPC, HPC → telescope,
    #: detector-side WAN element → telescope broker.
    wan_to_hpc_ns: int = 20 * MILLISECOND
    hpc_to_scope_ns: int = 60 * MILLISECOND
    element_to_scope_ns: int = 50 * MILLISECOND


@dataclass
class SupernovaResult:
    """Outcome of one run."""

    mode: str
    burst_start_ns: int
    trigger_fired_ns: int | None
    alert_at_scope_ns: int | None

    @property
    def warning_latency_ns(self) -> int | None:
        """Burst start → pointing alert in the telescope's hands."""
        if self.alert_at_scope_ns is None:
            return None
        return self.alert_at_scope_ns - self.burst_start_ns


class SupernovaScenario:
    """Builds and runs one flavour ("today" or "mmt") of the scenario."""

    def __init__(self, mode: str, config: SupernovaConfig | None = None, seed: int = 11):
        if mode not in ("today", "mmt"):
            raise ValueError(f"mode must be 'today' or 'mmt', got {mode!r}")
        self.mode = mode
        self.cfg = config or SupernovaConfig()
        self.sim = Simulator(seed=seed)
        self.detector_trigger = BurstDetector(
            window_ns=self.cfg.trigger_window_ns, threshold=self.cfg.trigger_threshold
        )
        self.alert_at_scope_ns: int | None = None
        self._candidates_sent = 0
        self._build()

    # -- topology ---------------------------------------------------------------

    def _build(self) -> None:
        cfg = self.cfg
        topo = Topology(self.sim)
        self.topology = topo
        self.dune = topo.add_host("dune-dtn", ip="10.1.0.2")
        self.wan_r = topo.add_router("esnet-r")
        self.hpc = topo.add_host("hpc-dtn", ip="10.2.0.2")
        self.scope = topo.add_host("rubin-control", ip="10.3.0.2")

        rate = LINK_RATE_BPS
        short = 1 * MICROSECOND
        if self.mode == "today":
            topo.connect(self.dune, self.wan_r, rate, short)
            topo.connect(self.wan_r, self.hpc, rate, cfg.wan_to_hpc_ns)
            topo.connect(self.hpc, self.scope, rate, cfg.hpc_to_scope_ns)
            topo.install_routes()
            self._build_today()
        else:
            self.element = topo.add(
                TofinoSwitch(self.sim, "site-tofino", mac=topo.allocate_mac(), ip="10.1.0.30")
            )
            self.nic = topo.add(
                AlveoNic.u280(self.sim, "site-nic", mac=topo.allocate_mac(), ip="10.1.0.20")
            )
            topo.connect(self.dune, self.nic, rate, short)
            topo.connect(self.nic, self.element, rate, short)
            topo.connect(self.element, self.hpc, rate, cfg.wan_to_hpc_ns)
            topo.connect(self.element, self.scope, rate, cfg.element_to_scope_ns)
            topo.install_routes()
            self._build_mmt()

    def _build_today(self) -> None:
        """Candidates: TCP DUNE→HPC; detection at HPC; alert: TCP HPC→scope."""
        profile = tuned_100g()
        self.dune_tcp = TcpStack(self.dune)
        self.hpc_tcp = TcpStack(self.hpc)
        self.scope_tcp = TcpStack(self.scope)
        self._delivered_candidates = 0

        self.hpc_tcp.listen(6000, config=profile, on_connection=self._hpc_conn)
        self.candidate_conn = self.dune_tcp.connect(self.hpc.ip, 6000, config=profile)
        self.scope_tcp.listen(6001, config=profile, on_connection=self._scope_conn)
        self.alert_conn = self.hpc_tcp.connect(self.scope.ip, 6001, config=profile)
        self._alert_sent = False

    def _hpc_conn(self, conn) -> None:
        conn.on_delivered = self._candidates_at_hpc

    def _scope_conn(self, conn) -> None:
        conn.on_delivered = self._alert_at_scope_tcp

    def _candidates_at_hpc(self, _nbytes: int, total: int) -> None:
        while (self._delivered_candidates + 1) * CANDIDATE_BYTES <= total:
            self._delivered_candidates += 1
            if self.detector_trigger.observe(self.sim.now) and not self._alert_sent:
                self._alert_sent = True
                self.alert_conn.send_message(SupernovaAlert.SIZE)

    def _alert_at_scope_tcp(self, _nbytes: int, total: int) -> None:
        if total >= SupernovaAlert.SIZE and self.alert_at_scope_ns is None:
            self.alert_at_scope_ns = self.sim.now

    def _build_mmt(self) -> None:
        """Candidates duplicated in-network to the telescope-side broker."""
        registry = extended_registry()
        self.registry = registry
        self.experiment_id = make_experiment_id(DUNE_EXPERIMENT)
        self.nic.attach_buffer(64 * 1024 * 1024)
        ModeTransitionProgram(
            registry,
            [
                TransitionRule(
                    from_config_id=0,
                    to_mode="fanout",
                    buffer_addr=self.nic.ip,
                    age_budget_ns=500 * MILLISECOND,
                    dup_group=1,
                    dup_copies=1,
                )
            ],
        ).install(self.nic)
        BufferTapProgram(buffer_addr=self.nic.ip).install(self.nic)
        AgeUpdateProgram().install(self.nic)
        AgeUpdateProgram().install(self.element)
        DuplicationProgram({1: [self.scope.ip]}).install(self.element)

        self.dune_stack = MmtStack(self.dune, registry)
        self.hpc_stack = MmtStack(self.hpc, registry)
        self.scope_stack = MmtStack(self.scope, registry)

        self.candidate_sender = self.dune_stack.create_sender(
            experiment_id=self.experiment_id,
            mode="identify",
            dst_ip=self.hpc.ip,
            flow="snb-candidates",
        )
        self.hpc_stack.bind_receiver(DUNE_EXPERIMENT, on_message=lambda p, h: None)
        self.scope_stack.bind_receiver(DUNE_EXPERIMENT, on_message=self._candidate_at_broker)
        self._alert_sent = False

    def _candidate_at_broker(self, packet, header) -> None:
        """The telescope-side broker sees the duplicated fresh stream."""
        if packet.payload_size < CANDIDATE_BYTES:
            return
        if self.detector_trigger.observe(self.sim.now) and not self._alert_sent:
            self._alert_sent = True
            # Detection happened next to the telescope: the pointing
            # alert is computed and handed over locally.
            self.alert_at_scope_ns = self.sim.now

    # -- physics driver -----------------------------------------------------------

    def _schedule_candidates(self) -> None:
        cfg = self.cfg
        rng = self.sim.rng("snb-candidates")
        t = 0.0
        end = cfg.burst_start_ns + cfg.burst_duration_ns + SECOND
        while t < end:
            in_burst = cfg.burst_start_ns <= t < cfg.burst_start_ns + cfg.burst_duration_ns
            rate = cfg.burst_rate_hz if in_burst else cfg.background_rate_hz
            t += rng.expovariate(1.0) * (SECOND / rate)
            if t >= end:
                break
            self.sim.schedule_at(int(t), self._emit_candidate)

    def _emit_candidate(self) -> None:
        self._candidates_sent += 1
        if self.mode == "today":
            self.candidate_conn.send_message(CANDIDATE_BYTES)
        else:
            self.candidate_sender.send(CANDIDATE_BYTES)

    def run(self) -> SupernovaResult:
        self._schedule_candidates()
        self.sim.run(until_ns=self.cfg.burst_start_ns + self.cfg.burst_duration_ns + 2 * SECOND)
        return SupernovaResult(
            mode=self.mode,
            burst_start_ns=self.cfg.burst_start_ns,
            trigger_fired_ns=self.detector_trigger.triggered_at,
            alert_at_scope_ns=self.alert_at_scope_ns,
        )


def compare(config: SupernovaConfig | None = None, seed: int = 11) -> dict[str, SupernovaResult]:
    """Run both flavours with identical physics; return results by mode."""
    return {
        "today": SupernovaScenario("today", config, seed=seed).run(),
        "mmt": SupernovaScenario("mmt", config, seed=seed).run(),
    }
