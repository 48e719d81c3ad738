"""UDP baseline: today's DAQ-network transport (§4).

"When a transport is used in a DAQ network, it is usually UDP (as done
in DUNE)". A :class:`UdpStack` registers with a host and demultiplexes
datagrams to bound :class:`UdpSocket` s by destination port. No
reliability, no ordering, no flow control — exactly what the DAQ
segment relies on capacity planning to survive.
"""

from __future__ import annotations

from typing import Callable

from ..netsim.headers import IpProto, UdpHeader
from ..netsim.host import Host
from ..netsim.packet import Packet

DatagramHandler = Callable[[Packet, "UdpSocket"], None]


class UdpError(RuntimeError):
    """Raised for UDP stack misuse."""


class UdpSocket:
    """A bound UDP endpoint."""

    def __init__(self, stack: "UdpStack", port: int) -> None:
        self.stack = stack
        self.port = port
        self.on_datagram: DatagramHandler | None = None
        self.rx_datagrams = 0
        self.rx_bytes = 0
        self.tx_datagrams = 0
        self.tx_bytes = 0

    def send_to(
        self,
        dst_ip: str,
        dst_port: int,
        payload_size: int,
        payload: bytes | None = None,
        meta: dict | None = None,
    ) -> bool:
        """Transmit one datagram; returns False on local drop."""
        header = UdpHeader(src_port=self.port, dst_port=dst_port)
        sent = self.stack.host.send_ip(
            dst_ip,
            IpProto.UDP,
            l4=header,
            payload_size=payload_size,
            payload=payload,
            meta=meta,
        )
        if sent:
            self.tx_datagrams += 1
            self.tx_bytes += payload_size
        return sent

    def _deliver(self, packet: Packet) -> None:
        self.rx_datagrams += 1
        self.rx_bytes += packet.payload_size
        if self.on_datagram is not None:
            self.on_datagram(packet, self)


class UdpStack:
    """Per-host UDP: port table and demux."""

    def __init__(self, host: Host) -> None:
        self.host = host
        self._sockets: dict[int, UdpSocket] = {}
        self.rx_no_socket = 0
        host.register_l3_protocol(IpProto.UDP, self._receive)

    def bind(self, port: int, on_datagram: DatagramHandler | None = None) -> UdpSocket:
        """Bind a socket to ``port``; raises if the port is taken."""
        if port in self._sockets:
            raise UdpError(f"{self.host.name}: UDP port {port} already bound")
        socket = UdpSocket(self, port)
        socket.on_datagram = on_datagram
        self._sockets[port] = socket
        return socket

    def _receive(self, packet: Packet) -> None:
        udp = packet.l4
        if udp is None:
            self.rx_no_socket += 1
            return
        socket = self._sockets.get(udp.dst_port)
        if socket is None:
            self.rx_no_socket += 1
            return
        socket._deliver(packet)


def remote_address(packet: Packet) -> tuple[str, int]:
    """(source IP, source port) of a received datagram."""
    ip = packet.ip
    udp = packet.l4
    return ip.src, udp.src_port
