"""Segment-local recovery: in-network gap repair (§5.3).

The paper's reliability scheme "generalizes the hop-by-hop behavior of
X25 (albeit at a higher layer)". The receiver-driven NAK path
(:mod:`repro.core.endpoint`) asks the nearest buffer; this module adds
the *network-driven* half: a buffer-hosting element watches the
sequence numbers transiting it and repairs gaps **itself** by NAK-ing
the next buffer upstream. Losses on an upstream segment are then healed
mid-path — the destination sees a complete stream and pays only the
segment RTT, never its own NAK round trip.

The protocol is the receiver's: both host one
:class:`~repro.core.retransmit.NakRequester`. It needs per-flow state
(highest seq, missing set, retry timer) — exactly the footprint an FPGA
smartNIC has and a switch ASIC does not, so this program is intended for
:class:`AlveoNic`-class devices (its state lives beside their
retransmission buffer).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.features import Feature, MsgType
from ..core.header import MmtHeader
from ..core.retransmit import NakRequester, ReceiverConfig
from ..netsim.headers import EthernetHeader, EtherType, IpProto, Ipv4Header
from ..netsim.packet import Packet
from .element import ProgrammableElement
from .pipeline import Action, Metadata, PacketView, Table
from .programs import Program


@dataclass
class SegmentRecoveryStats:
    """Counters for one segment-recovery instance."""
    gaps_detected: int = 0
    naks_sent: int = 0
    repairs_received: int = 0
    repairs_forwarded: int = 0
    #: Sequences the requester stopped asking for (its NAK budget ran out).
    unrecovered: int = 0


class SegmentRecoveryProgram(Program):
    """Element-side gap detection and upstream repair.

    ``upstream_buffer_addr`` names the buffer to NAK (the previous
    recovery point on the path); ``config`` paces detection and retries
    as it does at a receiver, except that the segment's round trip is
    provisioned, not sampled: the first retry comes ``initial_rtt_ns`` x
    ``RTT_SAFETY`` after the NAK. Repairs arrive addressed to this
    element, are mirrored into its own buffer (so downstream consumers
    can still recover from *here*), and are forwarded to the flow's
    destination.
    """

    def __init__(self, upstream_buffer_addr: str, config: ReceiverConfig | None = None) -> None:
        self.upstream_buffer_addr = upstream_buffer_addr
        self.config = config or ReceiverConfig()
        self.stats = SegmentRecoveryStats()
        self.requester: NakRequester | None = None
        #: flow key → where the flow's packets are headed (repairs follow).
        self._dst_ip: dict[tuple[int, int], str] = {}

    def install(self, element: ProgrammableElement) -> None:
        if element.ip is None:
            raise ValueError(f"{element.name} needs an IP for segment recovery")
        self.requester = NakRequester(
            element, element.name, element._send_mmt, self.config, self.stats,
            target=self.upstream_buffer_addr,
        )
        element.segment_recovery = self
        element.pipeline.add_table(Table(
            "segment_recovery", keys=[],
            default_action=Action("segment_observe", self._action),
        ))

    def _action(self, view: PacketView, meta: Metadata, _params: dict) -> None:
        header = view.mmt()
        if not header.has(Feature.SEQUENCED):
            return
        if header.msg_type not in (MsgType.DATA, MsgType.RETX_DATA):
            return
        if view.has_header("ip"):
            self._dst_ip[header.flow_key] = view.get("ip.dst")
        self.requester.observe(header)

    def on_repair(self, packet: Packet, header: MmtHeader) -> None:
        """A repair (RETX addressed to the element) arrived."""
        element = self.requester.node
        self.stats.repairs_received += 1
        if not self.requester.observe(header):
            return  # a second answer to a retried NAK: already forwarded
        # Keep a copy here: this element is a recovery point too.
        if element.buffer is not None:
            element.buffer.store(header.experiment_id, header.seq, packet, header.flow_id or 0)
        dst_ip = self._dst_ip.get(header.flow_key)
        if dst_ip is None:
            return
        # Re-inject through the element's pipeline so downstream
        # programs (steering, duplication, taps) apply to repairs too;
        # the flow's recorded destination replaces our own address.
        eth = EthernetHeader(src=element.mac, ethertype=EtherType.IPV4)
        ip = Ipv4Header(src=element.ip, dst=dst_ip, proto=IpProto.MMT)
        mmt = header.copy()
        repaired = Packet(
            headers=[eth, ip, mmt],
            payload_size=packet.payload_size,
            payload=packet.payload,
            meta=dict(packet.meta),
        )
        self.stats.repairs_forwarded += 1
        element.process_mmt(repaired, None, eth, ip, mmt)
