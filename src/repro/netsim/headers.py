"""Protocol header models for simulated packets.

Headers carry the fields the simulation logic reads plus a byte-accurate
``size_bytes`` so link serialization times and overhead accounting are
faithful. Payload bytes are usually *not* materialized (only counted),
except where a test or codec needs real bytes.

The MMT (multi-modal transport) header lives in :mod:`repro.core.header`;
it subclasses :class:`Header` so it stacks like any other protocol.

A packet holds one header per kind in a fixed slot (see
:class:`~repro.netsim.packet.Packet`), so every header class names its
``slot``. Header dataclasses use ``slots=True`` (packets allocate
several headers each, millions per run) and plain C-speed attribute
writes. A fixed-size header's ``size_bytes`` is a class constant; a
header whose fields decide its size computes it. Such a field changes
through ``Packet.rewrite``, which moves the packet's ``size_bytes`` with
it; the field write itself never reaches the packet.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import IntEnum


class EtherType(IntEnum):
    """EtherType values used by the simulation."""

    IPV4 = 0x0800
    ARP = 0x0806
    # The paper's protocol can run directly over L2 (Req 1); we use the
    # IEEE experimental/local EtherType for it.
    MMT = 0x88B5


class IpProto(IntEnum):
    """IPv4 protocol numbers used by the simulation."""

    TCP = 6
    UDP = 17
    # Experimental protocol number for MMT-over-IP.
    MMT = 254


class Header:
    """Base class for protocol headers. A subclass is a
    ``@dataclass(slots=True)`` that names the
    :class:`~repro.netsim.packet.Packet` slot it fills and gives its
    ``size_bytes`` on the wire."""

    __slots__ = ()

    #: The :class:`~repro.netsim.packet.Packet` attribute holding a
    #: header of this kind.
    slot = ""

    def copy(self) -> "Header":
        """Shallow field-wise copy (headers hold only value types)."""
        return replace(self)


@dataclass(slots=True)
class EthernetHeader(Header):
    """Ethernet II header (14 bytes) plus the 4-byte FCS trailer."""

    src: str = "00:00:00:00:00:00"
    dst: str = "ff:ff:ff:ff:ff:ff"
    ethertype: int = EtherType.IPV4

    slot = "eth"
    HEADER_BYTES = 14
    FCS_BYTES = 4
    size_bytes = HEADER_BYTES + FCS_BYTES

    def copy(self) -> "EthernetHeader":
        return EthernetHeader(src=self.src, dst=self.dst, ethertype=self.ethertype)


# ECN codepoints for :attr:`Ipv4Header.ecn` (RFC 3168 §5).
ECN_NOT_ECT = 0
ECN_ECT1 = 1
ECN_ECT0 = 2
ECN_CE = 3


@dataclass(slots=True)
class Ipv4Header(Header):
    """IPv4 header without options (20 bytes)."""

    src: str = "0.0.0.0"
    dst: str = "0.0.0.0"
    proto: int = IpProto.UDP
    ttl: int = 64
    dscp: int = 0
    ecn: int = 0
    identification: int = 0

    slot = "ip"
    size_bytes = 20

    def copy(self) -> "Ipv4Header":
        return Ipv4Header(
            src=self.src, dst=self.dst, proto=self.proto, ttl=self.ttl,
            dscp=self.dscp, ecn=self.ecn, identification=self.identification,
        )


@dataclass(slots=True)
class UdpHeader(Header):
    """UDP header (8 bytes)."""

    src_port: int = 0
    dst_port: int = 0

    slot = "l4"
    size_bytes = 8


@dataclass(slots=True)
class TcpHeader(Header):
    """TCP header (20 bytes, no options modelled beyond SACK blocks).

    ``seq`` numbers bytes (as in real TCP); flags are booleans. SACK
    blocks, when present, add 8 bytes each plus 2 bytes of option header,
    mirroring RFC 2018 sizing.
    """

    src_port: int = 0
    dst_port: int = 0
    seq: int = 0
    ack: int = 0
    flag_syn: bool = False
    flag_ack: bool = False
    flag_fin: bool = False
    flag_rst: bool = False
    flag_ece: bool = False
    flag_cwr: bool = False
    window: int = 65535
    sack_blocks: tuple[tuple[int, int], ...] = field(default_factory=tuple)

    slot = "l4"

    @property
    def size_bytes(self) -> int:
        base = 20
        if self.sack_blocks:
            base += 2 + 8 * len(self.sack_blocks)
        return base
