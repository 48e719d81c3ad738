"""Programmable network elements: pipeline hosting plus forwarding.

A :class:`ProgrammableElement` is a node that runs a
:class:`~repro.dataplane.pipeline.Pipeline` over MMT traffic before
forwarding. It can additionally host a retransmission buffer, in which
case NAKs addressed to the element are served *from the element itself*
("programmable network hardware across the different networks reference
retransmission buffers", §5.1).

Forwarding: IP packets follow the element's routing table (installed by
:meth:`repro.netsim.topology.Topology.install_routes`); non-IP frames
are L2-switched with MAC learning — DAQ networks run MMT directly over
Ethernet (Req 1), so elements inside the DAQ segment forward by MAC.
Non-MMT traffic (e.g. TCP cross-traffic) bypasses the pipeline and is
forwarded normally, as a real switch profile would.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.control import NakPayload, decode_control
from ..core.features import MsgType
from ..core.header import MmtHeader
from ..core.retransmit import NakResponder, RetransmitBuffer
from ..netsim.engine import Simulator
from ..netsim.headers import EthernetHeader, EtherType, IpProto, Ipv4Header
from ..netsim.link import Port
from ..netsim.node import Node
from ..netsim.packet import Packet
from ..netsim.switch import RoutingTable
from ..telemetry.inband import IntHeader, IntPostcard
from .pipeline import Metadata, Pipeline


@dataclass
class ElementStats:
    """Counters for one programmable element."""

    mmt_processed: int = 0
    passthrough: int = 0
    pipeline_drops: int = 0
    clones_made: int = 0
    control_generated: int = 0
    mirrored_to_buffer: int = 0
    naks_served: int = 0
    nak_packets_resent: int = 0
    #: NAKs addressed to the element whose payload did not parse.
    rx_malformed: int = 0
    dropped_no_route: int = 0
    int_packets_marked: int = 0
    int_postcards_pushed: int = 0
    int_stack_full: int = 0
    #: Crash/restart bookkeeping (fault injection): packets that arrived
    #: while the element was down are dropped and counted.
    crashes: int = 0
    restarts: int = 0
    dropped_failed: int = 0


class ProgrammableElement(Node):
    """Base class for Tofino-like switches and Alveo-like smartNICs."""

    BROADCAST = "ff:ff:ff:ff:ff:ff"

    def __init__(
        self,
        sim: Simulator,
        name: str,
        mac: str,
        ip: str | None = None,
        stages: int = 20,
    ) -> None:
        super().__init__(sim, name)
        self.mac = mac
        self.ip = ip
        self.pipeline = Pipeline(name, stages=stages)
        self.routes = RoutingTable()
        self.buffer: RetransmitBuffer | None = None
        #: NAKs this element's buffer cannot serve are forwarded here.
        self.nak_fallback_addr: str | None = None
        #: Set by SegmentRecoveryProgram.install(); receives repairs
        #: (RETX_DATA addressed to this element) for re-forwarding.
        self.segment_recovery = None
        self.stats = ElementStats()
        #: In-band telemetry (INT): set by IntDomain.enroll(). When
        #: ``int_hop_id`` is set this element appends a postcard to every
        #: marked MMT data packet; when additionally ``int_source`` is
        #: set it marks every ``int_sample_every``-th unmarked one.
        self.int_hop_id: int | None = None
        self.int_source = False
        self.int_sample_every = 1
        self.int_max_hops = 8
        self._int_sample_counter = 0
        self._mac_table: dict[str, Port] = {}
        #: Serves NAKs out of :attr:`buffer` (the responder half of the
        #: recovery protocol, :mod:`repro.core.retransmit`).
        self.responder = NakResponder(self, name, self._send_mmt)
        #: Causal tracer (repro.trace.Tracer) or None; records per-packet
        #: ingress/egress/drop plus the NAK-serving chain.
        self.tracer = None
        #: True while crashed: every arriving packet is dropped (and
        #: counted) until :meth:`restart` brings the element back.
        self.failed = False

    # -- configuration --------------------------------------------------------

    def add_route(self, prefix: str, port_name: str, next_hop_mac: str) -> None:
        if port_name not in self.ports:
            raise ValueError(f"{self.name} has no port {port_name!r}")
        self.routes.add(prefix, port_name, next_hop_mac)

    def attach_buffer(self, capacity_bytes: int) -> RetransmitBuffer:
        """Host a retransmission buffer; requires the element to have an IP."""
        if self.ip is None:
            raise ValueError(f"{self.name} needs an IP to host a buffer")
        if self.buffer is not None:
            raise ValueError(f"{self.name} already hosts a buffer")
        self.buffer = RetransmitBuffer(capacity_bytes, address=self.ip)
        return self.buffer

    # -- failure model --------------------------------------------------------

    def crash(self) -> None:
        """Take the element down: all arriving traffic is dropped.

        Models the dataplane component dying (power, firmware, bitstream
        reload). Queued egress frames already serializing still drain —
        only *processing* stops, like a wedged pipeline.
        """
        if self.failed:
            return
        self.failed = True
        self.stats.crashes += 1

    def restart(self) -> None:
        """Bring a crashed element back with cold state.

        Restarts clear everything stateful, as a reloaded FPGA/ASIC
        image would: pipeline registers (sequence counters, rate-limit
        timestamps), the learned MAC table, the NAK anti-loop guard, and
        the hosted retransmission buffer's *contents* (the buffer comes
        back alive but empty — restarts never recover cached packets).
        """
        if not self.failed:
            return
        self.failed = False
        self.stats.restarts += 1
        self.pipeline.reset_registers()
        self._mac_table.clear()
        self.responder.guard.clear()
        if self.buffer is not None:
            self.buffer.clear()
            self.buffer.restore()

    # -- ingress ------------------------------------------------------------------

    def receive(self, packet: Packet, port: Port) -> None:
        if self.failed:
            self.stats.dropped_failed += 1
            if self.tracer is not None:
                self.tracer.packet_event(
                    "element.drop", self.name, packet, reason="failed"
                )
            return
        # The one parse of this visit: everything downstream — pipeline
        # view, tables, actions, forwarding — is handed these three.
        eth = packet.find(EthernetHeader)
        ip = packet.find(Ipv4Header)
        mmt = packet.find(MmtHeader)
        if eth is not None:
            self._mac_table[eth.src] = port
        if mmt is None:
            self.stats.passthrough += 1
            self._forward(packet, port, eth, ip)
        elif ip is not None and self.ip is not None and ip.dst == self.ip:
            self._handle_local(packet, mmt, ip)
        else:
            self.process_mmt(packet, port, eth, ip, mmt)

    def process_mmt(
        self,
        packet: Packet,
        ingress: Port | None,
        eth: EthernetHeader | None,
        ip: Ipv4Header | None,
        mmt: MmtHeader,
    ) -> None:
        """Run the pipeline over an MMT packet and act on the verdict;
        ``eth``/``ip``/``mmt`` are the packet's headers as the caller
        parsed (or built) them.

        Also the re-injection point: locally reconstructed packets
        (e.g. segment repairs) enter here so every downstream program —
        steering, duplication, taps — applies to them too.
        """
        self.stats.mmt_processed += 1
        queue_pct = self._max_queue_occupancy_pct()
        meta = Metadata(
            ingress.name if ingress is not None else "", self.sim.now, queue_pct
        )
        tracer = self.tracer
        if tracer is not None:
            # Pre-pipeline view: at a sequencing element (U280) the seq
            # is still unassigned here, so ingress may be identity-less.
            tracer.emit(
                "element.ingress", self.name,
                mmt.experiment_id, mmt.flow_id or 0, mmt.seq,
                msg=mmt.msg_type.name, config=mmt.config_id, queue_pct=queue_pct,
            )
        self.pipeline.process(
            packet, meta, {EthernetHeader: eth, Ipv4Header: ip, MmtHeader: mmt}
        )
        if meta.drop:
            self.stats.pipeline_drops += 1
            if tracer is not None:
                tracer.emit(
                    "element.drop", self.name,
                    mmt.experiment_id, mmt.flow_id or 0, mmt.seq,
                    msg=mmt.msg_type.name, reason="pipeline",
                )
            return
        if meta.mirror_to_buffer and self.buffer is not None and mmt.seq is not None:
            self.buffer.store(mmt.experiment_id, mmt.seq, packet, mmt.flow_id or 0)
            self.stats.mirrored_to_buffer += 1
        if self.int_hop_id is not None:
            self._int_push(packet, mmt, queue_pct)
        if tracer is not None:
            # Post-pipeline view: seq/config are final here, and the
            # timestamp equals any INT postcard this hop just pushed —
            # the exact record the --verify-int cross-check anchors on.
            tracer.emit(
                "element.egress", self.name,
                mmt.experiment_id, mmt.flow_id or 0, mmt.seq,
                msg=mmt.msg_type.name, config=mmt.config_id, queue_pct=queue_pct,
            )
        # The slots behind meta.generated / meta.clones: None unless an
        # action emitted or cloned (the properties would allocate).
        if meta._generated is not None:
            for dst_ip, header, payload in meta._generated:
                self.stats.control_generated += 1
                self._send_mmt(dst_ip, header, payload_size=len(payload), payload=payload)
        if meta._clones is not None:
            for clone_dst in meta._clones:
                self._forward_clone(packet, clone_dst)
        self._forward(packet, ingress, eth, ip, meta.egress_spec)

    def _int_push(self, packet: Packet, mmt: MmtHeader, queue_pct: int) -> None:
        """Append this hop's INT postcard (marking at source elements).

        Runs after the pipeline (postcards record post-rewrite mode
        bits) and after the buffer mirror, so retransmitted copies are
        served without a stale telemetry stack.
        """
        if mmt.msg_type not in (MsgType.DATA, MsgType.RETX_DATA):
            return
        header = packet.find(IntHeader)
        if header is None:
            if not self.int_source:
                return
            self._int_sample_counter += 1
            if self._int_sample_counter % self.int_sample_every:
                return
            header = IntHeader(max_hops=self.int_max_hops)
            # Innermost (after MMT): forwarding never inspects it, but
            # its bytes still count toward serialization time and MTU.
            packet.headers.append(header)
            self.stats.int_packets_marked += 1
        postcard = IntPostcard(
            hop_id=self.int_hop_id,
            timestamp_ns=self.sim.now,
            queue_depth_pct=queue_pct,
            config_id=mmt.config_id,
            seq=mmt.seq or 0,
            flow_id=mmt.flow_id or 0,
        )
        if header.push(postcard):
            self.stats.int_postcards_pushed += 1
        else:
            self.stats.int_stack_full += 1

    def _max_queue_occupancy_pct(self) -> int:
        # Once per MMT packet over every port (66 on the fleet balancer).
        worst = 0.0
        for port in self.ports.values():
            queue = port.queue
            occupancy = queue.bytes_queued / queue.capacity_bytes
            if occupancy > worst:
                worst = occupancy
        return int(worst * 100)

    # -- local termination: serving NAKs from the element's buffer --------------

    def _handle_local(self, packet: Packet, mmt: MmtHeader, ip: Ipv4Header) -> None:
        if mmt.msg_type == MsgType.RETX_DATA and self.segment_recovery is not None:
            self.segment_recovery.on_repair(packet, mmt)
            return
        if mmt.msg_type != MsgType.NAK or self.buffer is None:
            return
        nak = decode_control(NakPayload, packet)
        if nak is None:
            self.stats.rx_malformed += 1
            return
        self.stats.naks_served += 1
        self.stats.nak_packets_resent += self.responder.serve(mmt, nak, ip.src)

    def _send_mmt(
        self,
        dst_ip: str,
        header: MmtHeader,
        payload_size: int = 0,
        payload: bytes | None = None,
        meta: dict | None = None,
        src_ip: str | None = None,
    ) -> bool:
        """Put one MMT packet this element originates on the wire;
        ``src_ip`` keeps an original requester as source when relaying."""
        route = self.routes.lookup(dst_ip)
        if route is None:
            self.stats.dropped_no_route += 1
            return False
        meta = dict(meta or {})
        meta.setdefault("sent_at", self.sim.now)
        packet = Packet(
            headers=[
                EthernetHeader(
                    src=self.mac, dst=route.next_hop_mac, ethertype=EtherType.IPV4
                ),
                Ipv4Header(src=src_ip or self.ip, dst=dst_ip, proto=IpProto.MMT),
                header,
            ],
            payload_size=payload_size,
            payload=payload,
            meta=meta,
        )
        return self.ports[route.port_name].send(packet)

    # -- forwarding ------------------------------------------------------------------

    def _forward_clone(self, packet: Packet, dst_ip: str) -> None:
        clone = packet.copy()
        ip = clone.find(Ipv4Header)
        if ip is None:
            return
        ip.dst = dst_ip
        clone.meta["clone_of"] = packet.packet_id
        self.stats.clones_made += 1
        self._forward(clone, None, clone.find(EthernetHeader), ip)

    def _forward(
        self,
        packet: Packet,
        ingress: Port | None,
        eth: EthernetHeader | None,
        ip: Ipv4Header | None,
        egress_spec: str = "",
    ) -> None:
        if egress_spec:
            self.ports[egress_spec].send(packet)
            return
        if ip is not None:
            route = self.routes.lookup(ip.dst)
            if route is None:
                self.stats.dropped_no_route += 1
                return
            if ip.ttl <= 1:
                self.stats.dropped_no_route += 1
                return
            ip.ttl -= 1
            if eth is not None:
                eth.src = self.mac
                eth.dst = route.next_hop_mac
            self.ports[route.port_name].send(packet)
            return
        # L2 forwarding (MMT directly over Ethernet inside the DAQ net).
        if eth is None:
            self.stats.dropped_no_route += 1
            return
        out = self._mac_table.get(eth.dst)
        if out is not None and out is not ingress:
            out.send(packet)
            return
        for port in self.ports.values():
            if port is not ingress and port.link is not None:
                port.send(packet.copy())
