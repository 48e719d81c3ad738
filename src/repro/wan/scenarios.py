"""End-to-end scenarios: today's pipeline (Fig. 2) vs multi-modal (Fig. 3).

Both scenarios share one physical topology — the paper's stages
DAQ → WAN → storage → campus::

    sensor - daqsw - dtn1 - [nic1] - wanR1 ===WAN=== wanR2 - [nic2] - dtn2
                                                              |
                                      researcher - campusR ---+ (distribution WAN)

- :class:`TodayScenario` (Fig. 2): UDP on the DAQ leg, terminated at
  DTN 1; a tuned TCP stream DTN 1 → DTN 2 (storage); a second tuned
  TCP stream DTN 2 → researcher. Every stage terminates, buffers, and
  re-originates — the complexity the paper calls out.
- :class:`MultimodalScenario` (Fig. 3): MMT end to end, wired by
  placement (:mod:`repro.dataplane.placement`). A smartNIC at DTN 1
  transitions mode 0→1 (sequence numbers, nearest-buffer, age-tracking),
  the WAN element refreshes buffers/ages, a smartNIC at DTN 2 updates
  ages, and storage (DTN 2) re-streams from its host buffer. Optionally
  the WAN element *duplicates* the stream straight to the researcher
  (§5.1: "streams can be duplicated in the network"), so fresh data
  skips storage termination entirely.

Both report the same :class:`ScenarioResult` so benches can print
side-by-side rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..baselines.tcp import TcpConfig, TcpStack
from ..baselines.tuning import tuned_100g
from ..baselines.udp import UdpStack
from ..core.endpoint import MmtStack, ReceiverConfig
from ..core.header import make_experiment_id
from ..core.modes import extended_registry
from ..dataplane.alveo import AlveoNic
from ..dataplane.placement import BUFFERING_NIC, NIC, SWITCH, FlowIntent, place
from ..dataplane.tofino import TofinoSwitch
from ..netsim.engine import Simulator
from ..netsim.topology import Topology
from ..netsim.units import MICROSECOND, MILLISECOND, gbps

SCENARIO_EXPERIMENT = 77
#: Every hop of both scenarios is 100 GbE.
LINK_RATE_BPS = gbps(100)
MTU_BYTES = 9000
#: Size of every sensor message.
MESSAGE_BYTES = 8192
#: Age budget stamped when the multi-modal stream becomes age-recover.
AGE_BUDGET_NS = 200 * MILLISECOND


@dataclass
class ScenarioConfig:
    """Shared knobs for both scenario flavours."""

    message_count: int = 2000
    #: Sensor emission interval (sets offered load).
    message_interval_ns: int = 2_000
    #: One-way WAN delay DTN1→storage, and storage→campus.
    wan_delay_ns: int = 25 * MILLISECOND
    campus_delay_ns: int = 5 * MILLISECOND
    wan_loss_rate: float = 0.0
    #: Multi-modal only: duplicate the stream in-network to the
    #: researcher instead of relaying from storage.
    duplicate_to_researcher: bool = False


@dataclass
class ScenarioResult:
    """What a scenario run measured."""

    sent: int
    storage_delivered: int
    researcher_delivered: int
    #: Per-message sensor→storage latency (ns), delivery order.
    storage_latencies_ns: list[int]
    #: Per-message sensor→researcher latency (ns), delivery order.
    researcher_latencies_ns: list[int]
    #: Time from first send until the last message reached storage.
    fct_storage_ns: int | None
    fct_researcher_ns: int | None
    extras: dict = field(default_factory=dict)


def _build_shared(topology: Topology) -> dict:
    """The physical skeleton both scenarios run over."""
    nodes = {}
    nodes["sensor"] = topology.add_host("sensor", ip="10.1.0.2")
    nodes["daqsw"] = topology.add_switch("daq-switch")
    nodes["dtn1"] = topology.add_host("dtn1", ip="10.1.0.10")
    nodes["wan_r1"] = topology.add_router("wan-r1")
    nodes["wan_r2"] = topology.add_router("wan-r2")
    nodes["dtn2"] = topology.add_host("dtn2", ip="10.2.0.10")
    nodes["campus_r"] = topology.add_router("campus-r")
    nodes["researcher"] = topology.add_host("researcher", ip="10.3.0.2")

    rate, short = LINK_RATE_BPS, 1 * MICROSECOND
    topology.connect(nodes["sensor"], nodes["daqsw"], rate, short, MTU_BYTES)
    topology.connect(nodes["daqsw"], nodes["dtn1"], rate, short, MTU_BYTES)
    return nodes


class TodayScenario:
    """Fig. 2: UDP in the DAQ net, tuned TCP across each WAN stage."""

    UDP_PORT = 9000
    TCP_PORT_STORAGE = 5001
    TCP_PORT_CAMPUS = 5002

    def __init__(self, sim: Simulator | None = None, config: ScenarioConfig | None = None):
        self.sim = sim or Simulator(seed=7)
        self.cfg = config or ScenarioConfig()
        cfg = self.cfg
        topo = Topology(self.sim)
        self.topology = topo
        n = _build_shared(topo)
        self.nodes = n
        rate, mtu, short = LINK_RATE_BPS, MTU_BYTES, 1 * MICROSECOND
        topo.connect(n["dtn1"], n["wan_r1"], rate, short, mtu)
        self.wan_link = topo.connect(
            n["wan_r1"], n["wan_r2"], rate, cfg.wan_delay_ns, mtu, loss_rate=cfg.wan_loss_rate
        )
        topo.connect(n["wan_r2"], n["dtn2"], rate, short, mtu)
        topo.connect(n["dtn2"], n["campus_r"], rate, cfg.campus_delay_ns, mtu)
        topo.connect(n["campus_r"], n["researcher"], rate, short, mtu)
        topo.install_routes()

        # Today's TCP stages run fully tuned: the paper compares against
        # a tuned DTN, not a strawman.
        tcp_config: TcpConfig = tuned_100g()
        # TCP MSS must fit the topology MTU.
        tcp_config.mss = min(tcp_config.mss, mtu - 40)

        self.sensor_udp = UdpStack(n["sensor"])
        self.dtn1_udp = UdpStack(n["dtn1"])
        self.dtn1_tcp = TcpStack(n["dtn1"])
        self.dtn2_tcp = TcpStack(n["dtn2"])
        self.researcher_tcp = TcpStack(n["researcher"])

        self.send_times: list[int] = []
        self.storage_latencies: list[int] = []
        self.researcher_latencies: list[int] = []
        self._storage_count = 0
        self._researcher_count = 0
        self.fct_storage: int | None = None
        self.fct_researcher: int | None = None
        self._first_send: int | None = None

        # DAQ leg: sensor UDP → DTN1.
        self.sensor_socket = self.sensor_udp.bind(4000)
        self.dtn1_udp.bind(self.UDP_PORT, on_datagram=self._at_dtn1)

        # WAN leg: DTN1 → DTN2 (storage).
        self.dtn2_tcp.listen(
            self.TCP_PORT_STORAGE, config=tcp_config, on_connection=self._storage_conn
        )
        self.conn_wan = self.dtn1_tcp.connect(
            n["dtn2"].ip, self.TCP_PORT_STORAGE, config=tcp_config
        )
        # Campus leg: DTN2 → researcher.
        self.researcher_tcp.listen(
            self.TCP_PORT_CAMPUS, config=tcp_config, on_connection=self._campus_conn
        )
        self.conn_campus = self.dtn2_tcp.connect(
            n["researcher"].ip, self.TCP_PORT_CAMPUS, config=tcp_config
        )

    # -- plumbing ---------------------------------------------------------

    def _at_dtn1(self, packet, _socket) -> None:
        """Terminate UDP; stream the message into the WAN TCP pipe."""
        self.conn_wan.send_message(MESSAGE_BYTES)

    def _storage_conn(self, conn) -> None:
        conn.on_delivered = self._at_storage

    def _campus_conn(self, conn) -> None:
        conn.on_delivered = self._at_researcher

    def _at_storage(self, _nbytes: int, total: int) -> None:
        m = MESSAGE_BYTES
        while (self._storage_count + 1) * m <= total:
            i = self._storage_count
            if i < len(self.send_times):
                self.storage_latencies.append(self.sim.now - self.send_times[i])
            self._storage_count += 1
            self.fct_storage = self.sim.now
            self.conn_campus.send_message(m)

    def _at_researcher(self, _nbytes: int, total: int) -> None:
        m = MESSAGE_BYTES
        while (self._researcher_count + 1) * m <= total:
            i = self._researcher_count
            if i < len(self.send_times):
                self.researcher_latencies.append(self.sim.now - self.send_times[i])
            self._researcher_count += 1
            self.fct_researcher = self.sim.now

    # -- driving -------------------------------------------------------------

    def _send_one(self) -> None:
        self.send_times.append(self.sim.now)
        if self._first_send is None:
            self._first_send = self.sim.now
        self.sensor_socket.send_to(
            self.nodes["dtn1"].ip,
            self.UDP_PORT,
            MESSAGE_BYTES,
            meta={"flow": "daq-udp"},
        )

    def run(self, settle_ns: int = 10 * MILLISECOND) -> ScenarioResult:
        """Emit the configured stream and run to quiescence."""
        for i in range(self.cfg.message_count):
            self.sim.schedule(
                settle_ns + i * self.cfg.message_interval_ns, self._send_one
            )
        self.sim.run()
        origin = self._first_send or 0
        return ScenarioResult(
            sent=len(self.send_times),
            storage_delivered=self._storage_count,
            researcher_delivered=self._researcher_count,
            storage_latencies_ns=self.storage_latencies,
            researcher_latencies_ns=self.researcher_latencies,
            fct_storage_ns=None if self.fct_storage is None else self.fct_storage - origin,
            fct_researcher_ns=(
                None if self.fct_researcher is None else self.fct_researcher - origin
            ),
            extras={
                "tcp_wan_retransmits": self.conn_wan.stats.retransmits,
                "tcp_wan_timeouts": self.conn_wan.stats.timeouts,
                "tcp_wan_fast_retransmits": self.conn_wan.stats.fast_retransmits,
                "tcp_campus_retransmits": self.conn_campus.stats.retransmits,
                "wan_lost": self.wan_link.stats.lost_random
                + self.wan_link.stats.lost_corruption,
            },
        )


class MultimodalScenario:
    """Fig. 3: MMT end to end with in-network buffers and duplication."""

    def __init__(self, sim: Simulator | None = None, config: ScenarioConfig | None = None):
        self.sim = sim or Simulator(seed=7)
        self.cfg = config or ScenarioConfig()
        cfg = self.cfg
        self.registry = extended_registry()
        self.experiment_id = make_experiment_id(SCENARIO_EXPERIMENT)
        topo = Topology(self.sim)
        self.topology = topo
        n = _build_shared(topo)
        self.nodes = n
        rate, mtu, short = LINK_RATE_BPS, MTU_BYTES, 1 * MICROSECOND

        self.nic1 = topo.add(
            AlveoNic.u280(self.sim, "nic1", mac=topo.allocate_mac(), ip="10.1.0.20")
        )
        self.wan_sw = topo.add(
            TofinoSwitch(self.sim, "wan-tofino", mac=topo.allocate_mac(), ip="10.9.0.1")
        )
        self.nic2 = topo.add(
            AlveoNic.u55c(self.sim, "nic2", mac=topo.allocate_mac(), ip="10.2.0.20")
        )

        topo.connect(n["dtn1"], self.nic1, rate, short, mtu)
        topo.connect(self.nic1, n["wan_r1"], rate, short, mtu)
        self.wan_link = topo.connect(
            n["wan_r1"], self.wan_sw, rate, cfg.wan_delay_ns, mtu, loss_rate=cfg.wan_loss_rate
        )
        topo.connect(self.wan_sw, n["wan_r2"], rate, short, mtu)
        topo.connect(n["wan_r2"], self.nic2, rate, short, mtu)
        topo.connect(self.nic2, n["dtn2"], rate, short, mtu)
        topo.connect(n["dtn2"], n["campus_r"], rate, cfg.campus_delay_ns, mtu)
        topo.connect(n["campus_r"], n["researcher"], rate, short, mtu)
        # The duplication path: the WAN element can reach the campus
        # directly (Fig. 3's in-network copy to downstream researchers).
        topo.connect(self.wan_sw, n["campus_r"], rate, cfg.campus_delay_ns, mtu)
        topo.install_routes()

        # --- programs: placement decides which element runs what -----------
        intent = FlowIntent(
            self.experiment_id,
            age_budget_ns=AGE_BUDGET_NS,
            duplicate_to=(n["researcher"].ip,) if cfg.duplicate_to_researcher else (),
            dup_group=SCENARIO_EXPERIMENT & 0xFFFF,
        )
        path = [n["sensor"], n["daqsw"], n["dtn1"], self.nic1, n["wan_r1"], self.wan_sw,
                n["wan_r2"], self.nic2]
        programs = place(
            path,
            {self.nic1: BUFFERING_NIC, self.wan_sw: SWITCH, self.nic2: NIC},
            intent,
            self.registry,
            512 * 1024 * 1024,
        )
        self.duplication = programs[self.wan_sw.name].duplication

        # --- endpoints ----------------------------------------------------------
        self.sensor_stack = MmtStack(n["sensor"], self.registry)
        self.dtn1_stack = MmtStack(n["dtn1"], self.registry)
        self.dtn2_stack = MmtStack(n["dtn2"], self.registry)
        self.researcher_stack = MmtStack(n["researcher"], self.registry)

        self.send_times: list[int] = []
        self.storage_latencies: list[int] = []
        self.researcher_latencies: list[int] = []
        self.fct_storage: int | None = None
        self.fct_researcher: int | None = None
        self._first_send: int | None = None
        self._relayed = 0

        self.sensor_sender = self.sensor_stack.create_sender(
            experiment_id=self.experiment_id,
            mode="identify",
            dst_mac=n["dtn1"].mac,
            l2_port=next(iter(n["sensor"].ports)),
            flow="daq-mmt",
        )
        self.dtn1_sender = self.dtn1_stack.create_sender(
            experiment_id=self.experiment_id,
            mode="identify",
            dst_ip=n["dtn2"].ip,
            flow="daq-mmt",
        )
        self.dtn1_receiver = self.dtn1_stack.bind_receiver(
            SCENARIO_EXPERIMENT, on_message=self._forward_at_dtn1
        )
        self.storage_receiver = self.dtn2_stack.bind_receiver(
            SCENARIO_EXPERIMENT,
            on_message=self._at_storage,
            config=ReceiverConfig(initial_rtt_ns=4 * cfg.wan_delay_ns),
        )
        self.researcher_receiver = self.researcher_stack.bind_receiver(
            SCENARIO_EXPERIMENT, on_message=self._at_researcher
        )
        # Storage→campus distribution (when not duplicating in-network):
        # storage re-streams in a reliable mode with a local buffer.
        self.dtn2_stack.attach_buffer(512 * 1024 * 1024)
        self.campus_sender = self.dtn2_stack.create_sender(
            experiment_id=self.experiment_id,
            mode="age-recover",
            dst_ip=n["researcher"].ip,
            age_budget_ns=AGE_BUDGET_NS,
            buffer_local=True,
            flow="campus-mmt",
        )

    # -- plumbing ----------------------------------------------------------------

    def _forward_at_dtn1(self, packet, _header) -> None:
        self._relayed += 1
        meta = {"sent_at": packet.meta.get("sent_at", self.sim.now)}
        self.dtn1_sender.send(packet.payload_size, payload=packet.payload, meta=meta)

    def _at_storage(self, packet, _header) -> None:
        sent_at = packet.meta.get("sent_at")
        if sent_at is not None:
            self.storage_latencies.append(self.sim.now - sent_at)
        self.fct_storage = self.sim.now
        if not self.cfg.duplicate_to_researcher:
            meta = {"sent_at": sent_at if sent_at is not None else self.sim.now}
            self.campus_sender.send(packet.payload_size, payload=packet.payload, meta=meta)

    def _at_researcher(self, packet, _header) -> None:
        sent_at = packet.meta.get("sent_at")
        if sent_at is not None:
            self.researcher_latencies.append(self.sim.now - sent_at)
        self.fct_researcher = self.sim.now

    # -- driving -----------------------------------------------------------------------

    def _send_one(self) -> None:
        self.send_times.append(self.sim.now)
        if self._first_send is None:
            self._first_send = self.sim.now
        self.sensor_sender.send(MESSAGE_BYTES)

    def run(self, settle_ns: int = 10 * MILLISECOND) -> ScenarioResult:
        for i in range(self.cfg.message_count):
            self.sim.schedule(
                settle_ns + i * self.cfg.message_interval_ns, self._send_one
            )
        self.sim.run()
        # End-of-run reconciliation at storage (run metadata, as in the
        # pilot), then drain recovery traffic.
        self.storage_receiver.request_missing(self.experiment_id, self._relayed)
        self.sim.run()
        origin = self._first_send or 0
        return ScenarioResult(
            sent=len(self.send_times),
            storage_delivered=self.storage_receiver.stats.messages_delivered,
            researcher_delivered=self.researcher_receiver.stats.messages_delivered,
            storage_latencies_ns=self.storage_latencies,
            researcher_latencies_ns=self.researcher_latencies,
            fct_storage_ns=None if self.fct_storage is None else self.fct_storage - origin,
            fct_researcher_ns=(
                None if self.fct_researcher is None else self.fct_researcher - origin
            ),
            extras={
                "naks": self.storage_receiver.stats.naks_sent,
                "naks_served_nic1": self.nic1.stats.naks_served,
                "retransmissions": self.storage_receiver.stats.retransmissions_received,
                "unrecovered": self.storage_receiver.stats.unrecovered,
                "aged": self.storage_receiver.stats.aged_packets,
                "wan_lost": self.wan_link.stats.lost_random
                + self.wan_link.stats.lost_corruption,
                "duplicated": self.duplication and self.duplication.duplicated,
            },
        )
