"""A receiver farm: one ingest pipe fanned out over N sticky DTNs.

The pilot (Fig. 4) terminates every flow at a single DTN 2; EJ-FAT's
whole point is that one DAQ stream feeds a *farm* — an in-network load
balancer sprays event windows over N processing nodes, keeping every
fragment of one event on one node. :class:`ReceiverFarm` is the
:class:`~repro.dataplane.pilot.IngestTestbed` with that farm as its
egress in place of the single receiving DTN::

    sensor — DAQ switch — DTN 1 — [U280] — Tofino2 ═╦═ rx-dtn-0
             (identify)         (age-recover,       ╠═ rx-dtn-1
                                 HBM buffer)        ╠═ ...
                                      balancer ─────╩═ rx-dtn-N-1

Each receiver DTN is a full endpoint: its own :class:`MmtStack`,
per-flow receiver state, and NAK path back to the U280's HBM buffer.
The Tofino2 runs the :class:`~repro.dataplane.loadbalancer
.LoadBalancerProgram`, which owns the sticky ``(experiment, flow,
event-window) → node`` calendar; retransmissions pass through the same
steering, so repair traffic always lands on the window's bound node —
even after a crash remaps the window, because the calendar entry moves
*first* and the repair follows it.

Receivers are stripe consumers (``detect_gaps=False``): the windows
between their own belong to peers, so they never NAK spontaneously.
Loss recovery is driven by end-of-run reconciliation instead — the
farm knows the calendar, computes exactly which seqs each node's bound
windows still owe, and has that node request them
(:meth:`~repro.core.endpoint.MmtReceiver.request_sequences`); NAK
retries and backoff then run the normal receiver machinery.

Node health feeds the balancer through the epoch-numbered
:class:`~repro.fleet.control.FleetController` sync loop;
:meth:`crash_node` kills a node's access link and marks it down, after
which the next sync tick redirects its windows (see control.py).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.endpoint import MmtReceiver, MmtStack, ReceiverConfig
from ..core.features import MsgType
from ..dataplane.loadbalancer import LoadBalancerProgram
from ..dataplane.pilot import PILOT_EXPERIMENT, IngestConfig, IngestTestbed
from ..netsim.host import Host
from ..netsim.link import Link
from ..netsim.packet import Packet
from ..netsim.units import MICROSECOND, MILLISECOND
from ..telemetry import MetricsRegistry, scrape_balancer, scrape_receiver_flows
from .control import FleetController


def node_address(index: int) -> str:
    """Deterministic per-node IP: the farm scales to hundreds of DTNs."""
    return f"10.40.{index // 200}.{index % 200 + 2}"


@dataclass
class FarmConfig(IngestConfig):
    """Parameters for one receiver-farm build (shared ingest fields
    plus the farm's own; two shared defaults differ from the pilot's)."""

    flows: int = 8
    #: One-way delay of each Tofino2 → receiver-DTN WAN leg.
    wan_delay_ns: int = 1 * MILLISECOND
    nodes: int = 4
    #: Event-window size (seqs per balancer tick).
    window: int = 16
    #: Control-loop sync cadence (EJ-FAT sync messages).
    sync_interval_ns: int = 100 * MICROSECOND
    #: What retransmissions do when their window's backend died between
    #: sync ticks (see LoadBalancerProgram).
    retx_policy: str = "rebind"
    #: Record every steering decision (property tests; off = zero cost).
    record_steering: bool = False
    #: Receiver tuning override (None builds stripe-consumer defaults).
    receiver: ReceiverConfig | None = None


@dataclass
class FarmNode:
    """One receiver DTN of the farm."""

    index: int
    host: Host
    stack: MmtStack
    receiver: MmtReceiver
    #: The Tofino2 ↔ node WAN leg (cut by :meth:`ReceiverFarm.crash_node`).
    link: Link
    delivered: int = 0
    bytes_delivered: int = 0
    retx_delivered: int = 0
    crashed_at_ns: int | None = None

    @property
    def address(self) -> str:
        return self.host.ip

    @property
    def alive(self) -> bool:
        return self.crashed_at_ns is None


@dataclass
class FarmReport:
    """Everything a farm run measured."""

    nodes: int
    flows: int
    messages_sent: int
    dtn1_relayed: int
    delivered: int
    naks_sent: int
    naks_served: int
    retransmissions: int
    unrecovered: int
    #: flow_id → the pilot-style per-flow accounting row.
    per_flow: dict[int, dict[str, int]]
    #: node index → delivery/steering shares.
    per_node: dict[int, dict[str, int]]
    #: Balancer + control-loop health.
    epoch: int
    table_updates: int
    redirects: int
    retx_rebinds: int
    syncs: int
    marks_down: int
    redirected_windows: int
    max_update_latency_ns: int
    #: Last delivery carried by a retransmission (0 = none).
    last_retx_delivery_ns: int = 0

    @property
    def complete(self) -> bool:
        """Every relayed message was delivered somewhere, none given up."""
        return all(
            row["unrecovered"] == 0 and row["delivered"] >= row["relayed"]
            for row in self.per_flow.values()
        )


class ReceiverFarm(IngestTestbed):
    """A ready-to-run build of the EJ-FAT-style fan-out testbed: the
    ingest pipe with a balancer + N-receiver-DTN egress."""

    config_type = FarmConfig
    default_seed = 7
    flow_label = "fleet"

    # -- construction ----------------------------------------------------------

    def _build_egress(self) -> None:
        cfg = self.config
        if cfg.nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {cfg.nodes}")
        # The farm: one WAN leg per receiver DTN, loss on each leg.
        self._legs: list[tuple[Host, Link]] = []
        for index in range(cfg.nodes):
            host = self.topology.add_host(f"rx-dtn-{index}", ip=node_address(index))
            link = self._connect(
                self.tofino, host, cfg.wan_delay_ns, loss_rate=cfg.wan_loss_rate
            )
            self._legs.append((host, link))

    def _relay_options(self) -> dict:
        # DTN 1 re-originates toward the farm; the balancer re-steers
        # per window, so the nominal destination is just node 0.
        return {"mode": "identify", "dst_ip": self._legs[0][0].ip}

    def _bind_egress(self) -> None:
        cfg = self.config
        self.balancer = LoadBalancerProgram(
            experiment_id=self.experiment_id,
            backends=[host.ip for host, _link in self._legs],
            window=cfg.window,
            retx_policy=cfg.retx_policy,
            record_log=cfg.record_steering,
        )
        self.balancer.install(self.tofino)

        receiver_config = cfg.receiver or ReceiverConfig(
            detect_gaps=False,
            initial_rtt_ns=max(4 * cfg.wan_delay_ns, 1 * MILLISECOND),
        )
        self.nodes: list[FarmNode] = []
        self._node_by_address: dict[str, FarmNode] = {}
        for index, (host, link) in enumerate(self._legs):
            stack = MmtStack(host, self.registry)
            receiver = stack.bind_receiver(
                PILOT_EXPERIMENT,
                on_message=self._deliver_fn(index),
                config=receiver_config,
            )
            node = FarmNode(
                index=index, host=host, stack=stack, receiver=receiver, link=link
            )
            self.nodes.append(node)
            self._node_by_address[host.ip] = node
        self.receivers = tuple(node.receiver for node in self.nodes)
        self.stacks += tuple(node.stack for node in self.nodes)

        self.controller = FleetController(
            self.sim,
            self.balancer,
            fill_fn=self._node_fill,
            sync_interval_ns=cfg.sync_interval_ns,
        )
        self.traced += (self.balancer, self.controller)

        #: flow_id → unique seqs delivered anywhere in the farm.
        self.delivered_seqs: dict[int, set[int]] = {f: set() for f in range(cfg.flows)}
        #: Every delivery: (time, msg_type, node index, flow, seq).
        self.deliveries: list[tuple[int, MsgType, int, int, int]] = []

    def _watch(self, sampler) -> None:
        from ..obs import watch_farm

        watch_farm(sampler, self)

    # -- health signals --------------------------------------------------------

    def _node_fill(self, address: str) -> int:
        """EJ-FAT sync fill: occupancy of the balancer's egress queue
        toward the node — the backlog the balancer itself can see."""
        node = self._node_by_address[address]
        for port in node.link.ends:
            if port.node is self.tofino:
                queue = port.queue
                return min(100, (queue.bytes_queued * 100) // queue.capacity_bytes)
        return 0

    def _node(self, index: int) -> FarmNode:
        if not 0 <= index < len(self.nodes):
            raise ValueError(
                f"node {index} out of range (valid: 0..{len(self.nodes) - 1})"
            )
        return self.nodes[index]

    def crash_node(self, index: int) -> None:
        """Kill a receiver DTN: its WAN leg drops everything in flight
        and the controller learns at the next sync tick (directory-style
        mark), which redirects its windows."""
        node = self._node(index)
        if node.crashed_at_ns is not None:
            return
        node.crashed_at_ns = self.sim.now
        node.link.up = False
        self.controller.mark_node_down(node.address)
        if self.tracer is not None:
            self.tracer.emit(
                "fleet.node_crash", node.host.name, at_ns=self.sim.now
            )

    def restore_node(self, index: int) -> None:
        """Bring a crashed node back (it rejoins for *new* windows)."""
        node = self._node(index)
        if node.crashed_at_ns is None:
            return
        node.crashed_at_ns = None
        node.link.up = True
        self.controller.mark_node_up(node.address)

    def drain_node(self, index: int) -> None:
        """Maintenance drain: bound windows finish, new windows avoid."""
        self.controller.drain(self._node(index).address)

    # -- dataflow callbacks ----------------------------------------------------

    def _deliver_fn(self, node_index: int):
        def deliver(packet: Packet, header) -> None:
            node = self.nodes[node_index]
            fid = header.flow_id or 0
            node.delivered += 1
            node.bytes_delivered += packet.payload_size
            if header.msg_type == MsgType.RETX_DATA:
                node.retx_delivered += 1
            self.delivered_seqs[fid].add(header.seq)
            self.delivered_by_flow[fid].append((self.sim.now, packet.payload_size))
            self.deliveries.append(
                (self.sim.now, header.msg_type, node_index, fid, header.seq)
            )

        return deliver

    # -- driving ---------------------------------------------------------------

    def run(
        self,
        control_until_ns: int | None = None,
        extra_ns: int = 0,
        reconcile: bool = True,
    ) -> FarmReport:
        """Run to quiescence (plus ``extra_ns``), reconcile, and report.

        The control loop's sync ticks cover the traffic span (scheduled
        streams, anything already sent, or ``control_until_ns`` when a
        generator emits lazily) plus two settle intervals; liveness marks
        past that horizon still trigger one catch-up tick each.
        """
        horizon = max(self._stream_end_ns, self.sim.now, control_until_ns or 0)
        self.controller.run_until(horizon + 2 * self.config.sync_interval_ns)
        self.sim.run(until_ns=self.sim.now + extra_ns if extra_ns else None)
        self.sim.run()
        if reconcile:
            self.reconcile()
            self.sim.run()
        return self.report()

    def reconcile(self) -> int:
        """Calendar-directed end-of-run recovery.

        For every flow, every relayed-but-undelivered seq is requested
        at the node its window is bound to *now* (a window remapped by
        redirect-on-crash is requested at its new owner, and the repair
        is steered there too). Returns how many seqs were requested.
        """
        requested = 0
        for fid in range(self.config.flows):
            expected = self.dtn1_relayed_by_flow.get(fid, 0)
            delivered = self.delivered_seqs[fid]
            per_node: dict[int, list[int]] = {}
            for seq in range(expected):
                if seq in delivered:
                    continue
                # route() (not backend_for) so stale bindings to dead
                # nodes are rebound on discovery.
                address = self.balancer.route(fid, seq)
                node = self._node_by_address[address]
                per_node.setdefault(node.index, []).append(seq)
            for index, seqs in sorted(per_node.items()):
                node = self.nodes[index]
                if not node.alive:
                    continue  # no live backend at all: nothing to ask
                requested += node.receiver.request_sequences(
                    self.experiment_id, seqs, flow_id=fid, buffer_addr=self.u280.ip
                )
        return requested

    # -- reporting -------------------------------------------------------------

    def collect_telemetry(self) -> MetricsRegistry:
        """The shared scrape plus per-node flows, balancer and controller."""
        registry = super().collect_telemetry()
        for node in self.nodes:
            scrape_receiver_flows(node.receiver, registry, host=node.host.name)
        scrape_balancer(self.balancer, registry, element=self.tofino.name)
        stats = self.controller.stats
        registry.counter("fleet_controller_syncs").set_total(stats.syncs)
        registry.counter("fleet_controller_marks_down").set_total(stats.marks_down)
        registry.counter("fleet_controller_redirected_windows").set_total(
            stats.redirected_windows
        )
        return registry

    def flow_report(self) -> dict[int, dict[str, int]]:
        """Per-flow accounting summed across the farm; ``delivered``
        counts unique seqs (a remapped window may land twice)."""
        report = super().flow_report()
        for fid, row in report.items():
            row["delivered"] = len(self.delivered_seqs[fid])
        return report

    def node_report(self) -> dict[int, dict[str, int]]:
        """Per-node delivery and steering shares."""
        report: dict[int, dict[str, int]] = {}
        for node in self.nodes:
            backend = self.balancer.backends[node.address]
            report[node.index] = {
                "delivered": node.delivered,
                "bytes_delivered": node.bytes_delivered,
                "retx_delivered": node.retx_delivered,
                "windows_assigned": backend.windows_assigned,
                "packets_steered": backend.packets_steered,
                "bytes_steered": backend.bytes_steered,
                "fill_pct": backend.fill_pct,
                "alive": int(node.alive),
            }
        return report

    def report(self) -> FarmReport:
        per_flow = self.flow_report()
        retx_times = [t for t, m, *_ in self.deliveries if m == MsgType.RETX_DATA]
        return FarmReport(
            nodes=self.config.nodes,
            flows=self.config.flows,
            messages_sent=self.messages_sent,
            dtn1_relayed=self.dtn1_relayed,
            delivered=sum(len(s) for s in self.delivered_seqs.values()),
            naks_sent=sum(row["naks_sent"] for row in per_flow.values()),
            naks_served=self.u280.stats.naks_served,
            retransmissions=sum(row["retransmissions"] for row in per_flow.values()),
            unrecovered=sum(row["unrecovered"] for row in per_flow.values()),
            per_flow=per_flow,
            per_node=self.node_report(),
            epoch=self.balancer.epoch,
            table_updates=self.balancer.table_updates,
            redirects=self.balancer.redirects,
            retx_rebinds=self.balancer.retx_rebinds,
            syncs=self.controller.stats.syncs,
            marks_down=self.controller.stats.marks_down,
            redirected_windows=self.controller.stats.redirected_windows,
            max_update_latency_ns=self.controller.stats.max_update_latency_ns,
            last_retx_delivery_ns=max(retx_times, default=0),
        )
