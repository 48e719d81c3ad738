"""The ingest testbed and its Fig. 4 egress: the pilot study, assembled.

Topology (100 GbE throughout, per the paper)::

    sensor --- DAQ switch --- DTN 1 --- [Alveo U280] --- Tofino2
                                                            |
                                        DTN 2 --- [Alveo U55C]

- sensor → DTN 1: **mode 0** ("identify"), MMT directly over Ethernet
  (Req 1), unreliable;
- DTN 1 → DTN 2: **mode 1** ("age-recover") — the U280 smartNIC
  transitions the stream, assigns sequence numbers from a register,
  mirrors packets into its HBM retransmission buffer, and stamps itself
  as the nearest buffer; the Tofino2 updates ages and re-stamps the
  nearest buffer;
- at the U55C: **mode 2** ("deliver-check") — a delivery deadline is
  added; DTN 2 checks timeliness on arrival and NAKs any gaps straight
  to the U280 (never to the sensor).

:class:`IngestTestbed` owns the top row, up to and including the
Tofino2: topology, programs, per-flow senders, the DTN 1 relay, traffic
injection and observer wiring. Behind the Tofino2 sits an *egress* —
:class:`PilotTestbed` (U55C + DTN 2) or :class:`~repro.fleet.farm
.ReceiverFarm` (a balancer and N receiver DTNs) — which supplies its
nodes, links and receivers, and its reconcile/report policy.

The WAN leg (Tofino2 ↔ egress) takes configurable delay and loss so the
same build serves both the physical-testbed shape (local, lossless)
and design exploration (long RTT, corruption loss), mirroring how the
authors kept a FABRIC variant alongside the physical pilot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.endpoint import MmtReceiver, MmtSender, MmtStack, ReceiverConfig
from ..core.header import make_experiment_id
from ..core.modes import ModeRegistry, pilot_registry
from ..core.retransmit import BufferDirectory, RetransmitBuffer
from ..netsim.engine import Simulator
from ..netsim.link import Link
from ..netsim.packet import Packet
from ..netsim.queues import DrrScheduler
from ..netsim.topology import Topology
from ..netsim.units import MICROSECOND, MILLISECOND, gbps
from ..telemetry import (
    IntDomain,
    MetricsRegistry,
    scrape_element,
    scrape_flow_counters,
    scrape_flow_residency,
    scrape_receiver_flows,
    scrape_simulator,
    scrape_stack,
    scrape_topology,
)
from .alveo import AlveoNic
from .programs import (
    AgeUpdateProgram,
    BufferTapProgram,
    ModeTransitionProgram,
    NearestBufferProgram,
    TransitionRule,
)
from .tofino import TofinoSwitch

#: Experiment number used by the pilot streams (arbitrary but fixed).
PILOT_EXPERIMENT = 42

#: Path positions (hops from the sensor) of the buffer-directory clients.
DTN1_POSITION = 2
U280_POSITION = 3
TOFINO_POSITION = 4

#: Every link of the testbed is 100 GbE (§5.4).
LINK_RATE_BPS = gbps(100)
#: DAQ-network leg one-way delay.
DAQ_DELAY_NS = 5 * MICROSECOND


@dataclass
class IngestConfig:
    """Parameters every ingest-pipe build shares, whatever its egress."""

    #: One-way delay of each WAN leg (Tofino2 ↔ egress).
    wan_delay_ns: int = 10 * MILLISECOND
    #: Random loss on the WAN legs (corruption-style loss, §4).
    wan_loss_rate: float = 0.0
    #: Age budget stamped when mode 1 activates.
    age_budget_ns: int = 50 * MILLISECOND
    #: Retransmission buffer capacity carved from U280 HBM.
    buffer_bytes: int = 512 * 1024 * 1024
    mtu_bytes: int = 9000
    slice_id: int = 0
    #: Enable the telemetry subsystem: end-of-run scraping of every
    #: component into a MetricsRegistry (the pilot adds INT postcards
    #: along U280 → Tofino2 → U55C with the sink at DTN 2).
    telemetry: bool = False
    #: Enable the causal tracer: a :class:`~repro.trace.Tracer` is
    #: installed on the engine, every port/link, the programmable
    #: elements, the endpoint stacks, and the retransmission buffers.
    #: Results are unaffected — tracing observes, never steers.
    trace: bool = False
    #: Flight-recorder ring capacity (None = retain every span).
    trace_capacity: int | None = None
    #: Sampling period for the on-clock observability sampler (None or
    #: 0 = no sampler object at all — the zero-overhead default; the
    #: engine's event sequence is byte-identical to a sampler-less
    #: build except for the sampler's own ticks).
    sample_every_ns: int | None = None
    #: Number of concurrent flows sharing the ingest path. With 1 the
    #: build is exactly the historical single-flow pilot: no FLOW_ID
    #: extension on the wire, one sender per hop, FIFO relay at DTN 1.
    #: With N > 1, every flow gets its own tagged sender pair (sensor
    #: and DTN 1), per-flow receiver state isolates recovery, and
    #: DTN 1's relay serves its shared uplink with deficit round robin
    #: so no elephant starves the others.
    flows: int = 1


@dataclass
class PilotConfig(IngestConfig):
    """Parameters for a pilot build."""

    #: Deadline offset stamped when mode 2 activates at the U55C.
    deadline_offset_ns: int = 5 * MILLISECOND
    #: Receiver tuning (reorder wait before NAK, retries).
    receiver: ReceiverConfig = field(default_factory=ReceiverConfig)
    #: Mark every Nth data packet at the INT source (1 = all).
    int_sample_every: int = 1
    #: Replace the pre-supposed static buffer wiring with a live
    #: :class:`~repro.core.retransmit.BufferDirectory`: elements stamp
    #: the nearest *live* buffer per packet, so marking a buffer down
    #: re-stamps flows to the next-nearest live one (failover), and a
    #: reliable sender with no live buffer degrades its mode. Chaos
    #: scenarios build the pilot this way.
    use_directory: bool = False
    #: Start the DTN 1 → DTN 2 leg in age-recover *at DTN 1* (sequence
    #: numbers assigned by the host stack) instead of upgrading at the
    #: U280. Required for buffer failover: it gives the stream a second
    #: recovery point upstream of the U280.
    reliable_from_dtn1: bool = False
    #: With ``reliable_from_dtn1``: also cache at DTN 1's host buffer
    #: and register it in the directory as the failover buffer.
    failover_buffer: bool = False
    #: Capacity of DTN 1's host-side failover buffer.
    dtn1_buffer_bytes: int = 256 * 1024 * 1024


@dataclass
class PilotReport:
    """Everything a pilot run measured."""

    messages_sent: int
    dtn1_relayed: int
    delivered: int
    duplicates: int
    naks_sent: int
    naks_served: int
    retransmissions: int
    unrecovered: int
    aged_packets: int
    deadline_ok: int
    deadline_misses: int
    mode_transitions_u280: int
    mode_transitions_u55c: int
    age_updates_tofino: int
    buffer_occupancy: float
    delivery_latencies_ns: list[int]
    #: Per-flow breakdown (multi-flow builds only; empty for flows=1):
    #: ``flow_id → {sent, relayed, delivered, bytes_delivered,
    #: naks_sent, unrecovered, retransmissions, first_delivery_ns,
    #: last_delivery_ns}``.
    per_flow: dict[int, dict[str, int]] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return self.delivered >= self.messages_sent and self.unrecovered == 0


class IngestTestbed:
    """sensor → DAQ switch → DTN 1 → U280 → Tofino2, plus an egress.

    Subclasses set the three class attributes and implement the egress
    hooks (:meth:`_build_egress`, :meth:`_relay_options`,
    :meth:`_bind_egress`, :meth:`_watch`) plus ``run``/``report``.
    """

    config_type: type[IngestConfig] = IngestConfig
    default_seed = 42
    #: Stem of the sender flow labels (they name spans in traces).
    flow_label = "ingest"

    #: Live buffer map consulted by the U280/Tofino2 programs and the
    #: DTN 1 senders; an egress that wants one creates it in
    #: :meth:`_build_egress`. ``None`` = static nearest-buffer wiring.
    directory: BufferDirectory | None = None
    #: DTN 1's host-side failover buffer, when the egress attaches one.
    dtn1_buffer: RetransmitBuffer | None = None

    def __init__(
        self,
        sim: Simulator | None = None,
        config: IngestConfig | None = None,
        registry: ModeRegistry | None = None,
    ) -> None:
        self.sim = sim or Simulator(seed=self.default_seed)
        self.config = config or self.config_type()
        self.registry = registry or pilot_registry()
        if self.config.flows < 1:
            raise ValueError(f"flows must be >= 1, got {self.config.flows}")
        self.experiment_id = make_experiment_id(PILOT_EXPERIMENT, self.config.slice_id)
        self._build()

    # -- construction ----------------------------------------------------------

    def _connect(self, a, b, delay_ns: int, loss_rate: float = 0.0) -> Link:
        cfg = self.config
        return self.topology.connect(
            a, b, LINK_RATE_BPS, delay_ns, cfg.mtu_bytes, loss_rate=loss_rate
        )

    def _build(self) -> None:
        cfg = self.config
        topo = self.topology = Topology(self.sim)

        self.sensor = topo.add_host("sensor", ip="10.10.0.2")
        self.daq_switch = topo.add_switch("daq-switch")
        self.dtn1 = topo.add_host("dtn1", ip="10.10.0.10")
        self.u280 = topo.add(
            AlveoNic.u280(self.sim, "alveo-u280", mac=topo.allocate_mac(), ip="10.20.0.2")
        )
        self.tofino = topo.add(
            TofinoSwitch(self.sim, "tofino2", mac=topo.allocate_mac(), ip="10.20.0.1")
        )
        self._connect(self.sensor, self.daq_switch, DAQ_DELAY_NS)
        self._connect(self.daq_switch, self.dtn1, DAQ_DELAY_NS)
        self._connect(self.dtn1, self.u280, 1 * MICROSECOND)
        self._connect(self.u280, self.tofino, 1 * MICROSECOND)
        self._build_egress()
        topo.install_routes()

        # --- programmable elements, up to the Tofino2 -----------------------
        self.buffer: RetransmitBuffer = self.u280.attach_buffer(cfg.buffer_bytes)
        self.u280_transition = ModeTransitionProgram(
            self.registry,
            [
                TransitionRule(
                    from_config_id=self.registry.by_name("identify").config_id,
                    to_mode="age-recover",
                    buffer_addr=self.u280.ip,
                    age_budget_ns=cfg.age_budget_ns,
                )
            ],
            directory=self.directory,
            path_position=U280_POSITION,
        )
        self.u280_transition.install(self.u280)
        BufferTapProgram(buffer_addr=self.u280.ip).install(self.u280)
        self.u280_age = AgeUpdateProgram()
        self.u280_age.install(self.u280)

        self.tofino_age = AgeUpdateProgram()
        self.tofino_age.install(self.tofino)
        if self.directory is not None:
            # No static fallback: a dead directory answer must NOT be
            # papered over by re-stamping the (possibly dead) U280.
            self.tofino_nearest = NearestBufferProgram(
                directory=self.directory, path_position=TOFINO_POSITION
            )
        else:
            self.tofino_nearest = NearestBufferProgram(buffer_addr=self.u280.ip)
        self.tofino_nearest.install(self.tofino)

        # --- endpoints and per-flow senders -----------------------------------
        self.sensor_stack = MmtStack(self.sensor, self.registry)
        self.dtn1_stack = MmtStack(self.dtn1, self.registry)
        #: Everything `attach_tracer`, the scrape and leak censuses walk;
        #: the egress appends its own in :meth:`_bind_egress`.
        self.elements: tuple = (self.u280, self.tofino)
        self.stacks: tuple = (self.sensor_stack, self.dtn1_stack)
        self.traced: tuple = (self.buffer,)

        self.messages_sent = 0
        self.dtn1_relayed = 0
        self.messages_sent_by_flow: dict[int, int] = {f: 0 for f in range(cfg.flows)}
        self.dtn1_relayed_by_flow: dict[int, int] = {f: 0 for f in range(cfg.flows)}
        #: flow_id → [(delivery time, payload size)] at the egress.
        self.delivered_by_flow: dict[int, list[tuple[int, int]]] = {
            f: [] for f in range(cfg.flows)
        }
        #: When the last ``send_stream``-scheduled message leaves.
        self._stream_end_ns = 0

        # Single-flow builds stay untagged (no FLOW_ID extension, wire
        # bytes identical to every earlier pilot); multi-flow builds tag
        # every sender, flow 0 included, so in-path flow counters and
        # per-flow recovery state see all of them.
        tagged = cfg.flows > 1

        def flow_kwargs(fid: int) -> dict:
            if not tagged:
                return {"flow": self.flow_label}
            return {"flow": f"{self.flow_label}-f{fid}", "flow_id": fid}

        self.sensor_senders: list[MmtSender] = [
            self.sensor_stack.create_sender(
                experiment_id=self.experiment_id,
                mode="identify",
                dst_mac=self.dtn1.mac,
                l2_port=next(iter(self.sensor.ports)),
                **flow_kwargs(fid),
            )
            for fid in range(cfg.flows)
        ]
        self.sensor_sender: MmtSender = self.sensor_senders[0]
        relay_options = self._relay_options()
        self.dtn1_senders: list[MmtSender] = [
            self.dtn1_stack.create_sender(
                experiment_id=self.experiment_id, **relay_options, **flow_kwargs(fid)
            )
            for fid in range(cfg.flows)
        ]
        self.dtn1_sender: MmtSender = self.dtn1_senders[0]

        # Multi-flow relay fairness: DTN 1's uplink (and the U280 buffer
        # behind it) is the shared resource; a DRR scheduler decides the
        # re-origination order so one hot flow cannot monopolize it.
        self.relay_drr: DrrScheduler | None = (
            DrrScheduler(quantum_bytes=cfg.mtu_bytes) if tagged else None
        )
        self._relay_drain_pending = False
        self.dtn1_receiver: MmtReceiver = self.dtn1_stack.bind_receiver(
            PILOT_EXPERIMENT, on_message=self._relay_at_dtn1
        )

        # --- egress endpoints, then the observers over the whole build --------
        self.metrics: MetricsRegistry | None = MetricsRegistry() if cfg.telemetry else None
        self._bind_egress()
        self.tracer = None
        if cfg.trace:
            from ..trace import Tracer

            self.attach_tracer(Tracer(self.sim, capacity=cfg.trace_capacity))
        self.sampler = None
        if cfg.sample_every_ns:
            from ..obs import Sampler

            self.sampler = Sampler(self.sim, every_ns=cfg.sample_every_ns)
            self._watch(self.sampler)
            self.sampler.arm()

    def _build_egress(self) -> None:
        """Add the nodes and links behind the Tofino2 (routes come after)."""
        raise NotImplementedError

    def _relay_options(self) -> dict:
        """``create_sender`` kwargs: how DTN 1 re-originates toward the
        egress. Called once the DTN 1 stack exists, so DTN 1-side egress
        state (the pilot's failover buffer) is attached here too."""
        raise NotImplementedError

    def _bind_egress(self) -> None:
        """Install egress programs, stacks and receivers: set
        ``receivers`` and extend ``elements``/``stacks``/``traced``."""
        raise NotImplementedError

    def _watch(self, sampler) -> None:
        """Wire this build's gauge set onto a fresh sampler."""
        raise NotImplementedError

    def attach_tracer(self, tracer) -> None:
        """Install a :class:`~repro.trace.Tracer` on every hook point.

        Idempotent in effect (re-attaching replaces the previous tracer
        everywhere), so tests can swap tracers between runs.
        """
        self.tracer = tracer
        self.sim.tracer = tracer
        for node in self.topology.nodes.values():
            for port in node.ports.values():
                port.tracer = tracer
        for part in (*self.topology.links, *self.elements, *self.stacks, *self.traced):
            part.tracer = tracer

    # -- dataflow callbacks ------------------------------------------------------

    def _relay_at_dtn1(self, packet: Packet, header) -> None:
        """DTN 1's store-and-forward: re-originate toward the egress.

        The original send timestamp rides along so delivery latency is
        measured sensor → receiver end-to-end. Multi-flow builds queue
        the relay through a DRR scheduler instead of forwarding inline,
        so bursts arriving back-to-back from one flow cannot starve the
        shared uplink.
        """
        self.dtn1_relayed += 1
        fid = header.flow_id or 0
        self.dtn1_relayed_by_flow[fid] = self.dtn1_relayed_by_flow.get(fid, 0) + 1
        meta = {"sent_at": packet.meta.get("sent_at", self.sim.now)}
        if self.relay_drr is None:
            self.dtn1_sender.send(packet.payload_size, payload=packet.payload, meta=meta)
            return
        self.relay_drr.enqueue(
            fid, (packet.payload_size, packet.payload, meta), packet.size_bytes
        )
        if not self._relay_drain_pending:
            self._relay_drain_pending = True
            self.sim.schedule(0, self._drain_relay)

    def _drain_relay(self) -> None:
        """Serve everything queued at DTN 1 in deficit-round-robin order."""
        assert self.relay_drr is not None
        self._relay_drain_pending = False
        while True:
            served = self.relay_drr.dequeue()
            if served is None:
                return
            fid, (payload_size, payload, meta) = served
            self.dtn1_senders[fid].send(payload_size, payload=payload, meta=meta)

    # -- driving ---------------------------------------------------------------------

    def send_message(
        self, payload_size: int = 8000, flow: int = 0, payload: bytes | None = None
    ) -> None:
        """Emit one DAQ message from the sensor right now."""
        self.sensor_senders[flow].send(payload_size, payload=payload)
        self.messages_sent += 1
        self.messages_sent_by_flow[flow] = self.messages_sent_by_flow.get(flow, 0) + 1

    def send_stream(
        self, count: int, payload_size: int = 8000, interval_ns: int = 1_000, flow: int = 0
    ) -> None:
        """Schedule a steady stream of ``count`` messages from the sensor."""
        flows = self.config.flows
        if not 0 <= flow < flows:
            raise ValueError(f"flow {flow} out of range (valid: 0..{flows - 1})")
        if count < 0 or interval_ns < 0:
            raise ValueError(f"count/interval_ns must be >= 0, got {count}/{interval_ns}")
        for i in range(count):
            self.sim.schedule(i * interval_ns, self.send_message, payload_size, flow)
        if count:
            self._stream_end_ns = max(
                self._stream_end_ns, self.sim.now + (count - 1) * interval_ns
            )

    def send_split(
        self, total: int, payload_size: int = 8000, interval_ns: int = 1_000
    ) -> int:
        """Split ``total`` messages over every flow, all streaming in
        parallel (the first ``total % flows`` flows carry one extra), so
        offered load matches a single-flow ``send_stream(total)``.
        Returns the longest flow's span in ns."""
        base, extra = divmod(total, self.config.flows)
        for fid in range(self.config.flows):
            self.send_stream(
                base + (1 if fid < extra else 0), payload_size, interval_ns, flow=fid
            )
        return (base + (1 if extra else 0)) * interval_ns

    # -- reporting -------------------------------------------------------------------

    def collect_telemetry(self) -> MetricsRegistry:
        """Scrape the whole testbed into the registry (end of run):
        engine, topology, elements and endpoint stacks; egresses add
        their own series on top."""
        if self.metrics is None:
            raise RuntimeError(
                f"telemetry disabled; build with {self.config_type.__name__}(telemetry=True)"
            )
        scrape_simulator(self.sim, self.metrics)
        scrape_topology(self.topology, self.metrics, now_ns=self.sim.now)
        for element in self.elements:
            scrape_element(element, self.metrics)
        for stack in self.stacks:
            scrape_stack(stack, self.metrics)
        return self.metrics

    def flow_report(self) -> dict[int, dict[str, int]]:
        """Per-flow accounting: sent/relayed/delivered plus recovery
        counters summed over the egress receivers' per-flow state and
        the completion window (first/last delivery times) fairness
        analysis needs."""
        summaries = [receiver.flow_summary() for receiver in self.receivers]
        report: dict[int, dict[str, int]] = {}
        for fid in range(self.config.flows):
            rows = [s.get((self.experiment_id, fid), {}) for s in summaries]
            deliveries = self.delivered_by_flow.get(fid, [])
            report[fid] = {
                "sent": self.messages_sent_by_flow.get(fid, 0),
                "relayed": self.dtn1_relayed_by_flow.get(fid, 0),
                **{
                    key: sum(row.get(key, 0) for row in rows)
                    for key in ("delivered", "bytes_delivered", "naks_sent",
                                "unrecovered", "retransmissions")
                },
                "first_delivery_ns": deliveries[0][0] if deliveries else 0,
                "last_delivery_ns": deliveries[-1][0] if deliveries else 0,
            }
        return report


class PilotTestbed(IngestTestbed):
    """A ready-to-run build of the Fig. 4 pilot: the ingest pipe with a
    U55C + DTN 2 egress (and the directory/failover options)."""

    config_type = PilotConfig
    flow_label = "pilot"

    def _build_egress(self) -> None:
        cfg, topo = self.config, self.topology
        self.u55c = topo.add(
            AlveoNic.u55c(self.sim, "alveo-u55c", mac=topo.allocate_mac(), ip="10.30.0.2")
        )
        self.dtn2 = topo.add_host("dtn2", ip="10.30.0.10")
        self.wan_link = self._connect(
            self.tofino, self.u55c, cfg.wan_delay_ns, loss_rate=cfg.wan_loss_rate
        )
        self._connect(self.u55c, self.dtn2, 1 * MICROSECOND)
        if cfg.use_directory:
            self.directory = BufferDirectory()
            self.directory.register(
                self.u280.ip, U280_POSITION, experiments={self.experiment_id}
            )

    def _relay_options(self) -> dict:
        cfg = self.config
        if not cfg.reliable_from_dtn1:
            return {"mode": "identify", "dst_ip": self.dtn2.ip}
        if cfg.failover_buffer:
            self.dtn1_buffer = self.dtn1_stack.attach_buffer(cfg.dtn1_buffer_bytes)
            self.traced += (self.dtn1_buffer,)
            if self.directory is not None:
                self.directory.register(
                    self.dtn1.ip, DTN1_POSITION, experiments={self.experiment_id}
                )
        return {
            "mode": "age-recover",
            "dst_ip": self.dtn2.ip,
            "age_budget_ns": cfg.age_budget_ns,
            "buffer_local": self.dtn1_buffer is not None,
            "directory": self.directory,
            "path_position": DTN1_POSITION,
            "degraded_mode": "identify",
        }

    def _bind_egress(self) -> None:
        cfg = self.config
        self.u55c_transition = ModeTransitionProgram(
            self.registry,
            [
                TransitionRule(
                    from_config_id=self.registry.by_name("age-recover").config_id,
                    to_mode="deliver-check",
                    deadline_offset_ns=cfg.deadline_offset_ns,
                    notify_addr=self.dtn1.ip,
                )
            ],
        )
        self.u55c_transition.install(self.u55c)
        self.u55c_age = AgeUpdateProgram()
        self.u55c_age.install(self.u55c)

        self.dtn2_stack = MmtStack(self.dtn2, self.registry)
        self.delivered_messages: list[tuple[int, int]] = []  # (time, payload size)
        self.dtn2_receiver: MmtReceiver = self.dtn2_stack.bind_receiver(
            PILOT_EXPERIMENT, on_message=self._deliver_at_dtn2, config=cfg.receiver
        )
        self.receivers = (self.dtn2_receiver,)
        self.elements += (self.u55c,)
        self.stacks += (self.dtn2_stack,)

        self.int_domain: IntDomain | None = None
        if self.metrics is not None:
            self.int_domain = IntDomain()
            self.int_domain.enroll(self.u280, source=True, sample_every=cfg.int_sample_every)
            self.int_domain.enroll(self.tofino)
            self.int_domain.enroll(self.u55c)
            self.dtn2_stack.int_sink = self.int_domain.make_sink(self.metrics)

    def _watch(self, sampler) -> None:
        from ..obs import watch_pilot

        watch_pilot(sampler, self)

    def _deliver_at_dtn2(self, packet: Packet, header) -> None:
        self.delivered_messages.append((self.sim.now, packet.payload_size))
        fid = header.flow_id or 0
        self.delivered_by_flow.setdefault(fid, []).append(
            (self.sim.now, packet.payload_size)
        )

    def run(self, extra_ns: int = 0, reconcile: bool = True) -> PilotReport:
        """Run to quiescence (plus ``extra_ns``), reconcile, and report."""
        self.sim.run(until_ns=self.sim.now + extra_ns if extra_ns else None)
        self.sim.run()
        if reconcile:
            # End-of-run bookkeeping: DTN 2 knows how many messages DTN 1
            # forwarded (run metadata) and NAKs anything still missing.
            # Multi-flow runs reconcile per flow: each flow numbers its
            # own sequence space, so "expected" is per-flow relay counts.
            if self.config.flows > 1:
                for fid in range(self.config.flows):
                    self.dtn2_receiver.request_missing(
                        self.experiment_id,
                        self.dtn1_relayed_by_flow.get(fid, 0),
                        flow_id=fid,
                    )
            else:
                self.dtn2_receiver.request_missing(self.experiment_id, self.dtn1_relayed)
            self.sim.run()
        return self.report()

    def collect_telemetry(self) -> MetricsRegistry:
        """The shared scrape (the INT sink has been feeding the registry
        live) plus the multi-flow series at DTN 2, Tofino2 and U280."""
        metrics = super().collect_telemetry()
        if self.config.flows > 1:
            scrape_receiver_flows(self.dtn2_receiver, metrics, host=self.dtn2.name)
            scrape_flow_counters(self.tofino.flow_counters(), metrics, element=self.tofino.name)
            scrape_flow_residency(self.u280.hbm_flow_occupancy(), metrics, host=self.u280.name)
        return metrics

    def report(self) -> PilotReport:
        rx = self.dtn2_receiver.stats
        return PilotReport(
            messages_sent=self.messages_sent,
            dtn1_relayed=self.dtn1_relayed,
            delivered=rx.messages_delivered,
            duplicates=rx.duplicates,
            naks_sent=rx.naks_sent,
            naks_served=self.u280.stats.naks_served,
            retransmissions=rx.retransmissions_received,
            unrecovered=rx.unrecovered,
            aged_packets=rx.aged_packets,
            deadline_ok=rx.deadline_ok,
            deadline_misses=rx.deadline_misses,
            mode_transitions_u280=self.u280_transition.transitions_applied,
            mode_transitions_u55c=self.u55c_transition.transitions_applied,
            age_updates_tofino=self.tofino_age.updates,
            buffer_occupancy=self.buffer.occupancy,
            delivery_latencies_ns=[lat for _t, lat in self.dtn2_receiver.delivery_log],
            per_flow=self.flow_report() if self.config.flows > 1 else {},
        )
