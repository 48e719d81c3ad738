"""End hosts with a small protocol stack.

A :class:`Host` terminates L2/L3: it checks destination addresses,
strips headers, and dispatches to registered protocol handlers.
Transports (UDP sockets, the TCP baseline, MMT endpoints) register
themselves with :meth:`Host.register_l3_protocol` or — for transports
that run directly over Ethernet, as MMT can (Req 1) —
:meth:`Host.register_l2_protocol`.

Address resolution is static (no ARP): the topology builder installs
neighbor MAC entries. Routing is longest-prefix-match via
:class:`~repro.netsim.switch.RoutingTable`.
"""

from __future__ import annotations

from typing import Callable

from .engine import Simulator
from .headers import EthernetHeader, EtherType, Header, Ipv4Header
from .link import Port
from .node import Node
from .packet import Packet
from .switch import RoutingTable

PacketHandler = Callable[[Packet], None]


class Host(Node):
    """A multi-homed end host with static routes and protocol demux."""

    def __init__(self, sim: Simulator, name: str, ip: str, mac: str) -> None:
        super().__init__(sim, name)
        self.ip = ip
        self.mac = mac
        self.addresses: set[str] = {ip}
        self.routes = RoutingTable()
        self._l3_handlers: dict[int, PacketHandler] = {}
        self._l2_handlers: dict[int, PacketHandler] = {}
        self.rx_unhandled = 0
        self.tx_no_route = 0

    # -- configuration ----------------------------------------------------

    def add_route(self, prefix: str, port_name: str, next_hop_mac: str) -> None:
        """Install a static route out of ``port_name`` via ``next_hop_mac``."""
        if port_name not in self.ports:
            raise ValueError(f"{self.name} has no port {port_name!r}")
        self.routes.add(prefix, port_name, next_hop_mac)

    def register_l3_protocol(self, proto: int, handler: PacketHandler) -> None:
        """Dispatch IPv4 packets with protocol number ``proto`` to ``handler``."""
        if proto in self._l3_handlers:
            raise ValueError(f"{self.name} already handles IP proto {proto}")
        self._l3_handlers[proto] = handler

    def register_l2_protocol(self, ethertype: int, handler: PacketHandler) -> None:
        """Dispatch Ethernet frames with ``ethertype`` to ``handler``."""
        if ethertype in self._l2_handlers:
            raise ValueError(f"{self.name} already handles ethertype {ethertype:#x}")
        self._l2_handlers[ethertype] = handler

    # -- transmit ----------------------------------------------------------

    def send_ip(
        self,
        dst_ip: str,
        proto: int,
        payload_size: int = 0,
        payload: bytes | None = None,
        dscp: int = 0,
        meta: dict | None = None,
        src_ip: str | None = None,
        ecn: int = 0,
        l4: Header | None = None,
        mmt: Header | None = None,
    ) -> bool:
        """Build and transmit an IPv4 packet toward ``dst_ip`` carrying
        the transport header ``l4`` (UDP, TCP) or ``mmt``.

        ``src_ip`` overrides the source address — used when relaying a
        request on another node's behalf (e.g. forwarding a NAK whose
        answer must go to the original requester); fine inside the
        paper's "limited domain", never on the open Internet (§5.3).
        ``ecn`` sets the IPv4 ECN codepoint (ECT(0)=2 for ECN-capable
        transports; AQMs may rewrite it to CE=3 in flight).
        Returns False when no route exists or the egress port dropped it.
        """
        route = self.routes.lookup(dst_ip)
        if route is None:
            self.tx_no_route += 1
            return False
        packet = Packet(
            eth=EthernetHeader(src=self.mac, dst=route.next_hop_mac, ethertype=EtherType.IPV4),
            ip=Ipv4Header(src=src_ip or self.ip, dst=dst_ip, proto=proto, dscp=dscp, ecn=ecn),
            l4=l4,
            mmt=mmt,
            payload_size=payload_size,
            payload=payload,
            meta=dict(meta or {}),
        )
        packet.meta.setdefault("sent_at", self.sim.now)
        return self.ports[route.port_name].send(packet)

    def send_l2(
        self,
        port_name: str,
        dst_mac: str,
        ethertype: int,
        mmt: Header | None = None,
        payload_size: int = 0,
        payload: bytes | None = None,
        meta: dict | None = None,
    ) -> bool:
        """Transmit an MMT frame directly over Ethernet (no IP) out of
        ``port_name``."""
        packet = Packet(
            eth=EthernetHeader(src=self.mac, dst=dst_mac, ethertype=ethertype),
            mmt=mmt,
            payload_size=payload_size,
            payload=payload,
            meta=dict(meta or {}),
        )
        packet.meta.setdefault("sent_at", self.sim.now)
        return self.ports[port_name].send(packet)

    # -- receive -----------------------------------------------------------

    def receive(self, packet: Packet, port: Port) -> None:
        eth = packet.eth
        if eth is None:
            self.rx_unhandled += 1
            return
        if eth.dst not in (self.mac, EthernetSwitchBroadcast):
            self.rx_unhandled += 1
            return
        if eth.ethertype == EtherType.IPV4:
            self._receive_ip(packet)
            return
        handler = self._l2_handlers.get(eth.ethertype)
        if handler is None:
            self.rx_unhandled += 1
            return
        handler(packet)

    def _receive_ip(self, packet: Packet) -> None:
        ip = packet.ip
        if ip is None or ip.dst not in self.addresses:
            self.rx_unhandled += 1
            return
        handler = self._l3_handlers.get(ip.proto)
        if handler is None:
            self.rx_unhandled += 1
            return
        handler(packet)


#: The L2 broadcast address hosts also accept.
EthernetSwitchBroadcast = "ff:ff:ff:ff:ff:ff"
