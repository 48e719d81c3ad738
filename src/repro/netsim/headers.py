"""Protocol header models for simulated packets.

Headers carry the fields the simulation logic reads plus a byte-accurate
``size_bytes`` so link serialization times and overhead accounting are
faithful. Payload bytes are usually *not* materialized (only counted),
except where a test or codec needs real bytes.

The MMT (multi-modal transport) header lives in :mod:`repro.core.header`;
it subclasses :class:`Header` so it stacks like any other protocol.

Performance notes (see README "Performance"): header dataclasses use
``slots=True`` (packets allocate several headers each, millions per
run) and plain C-speed attribute writes. A header whose wire size can
change names the fields that change it with :func:`size_fields`; only
those writes run Python, and they push the change to the
:class:`~repro.netsim.packet.Packet` that memoized the header's size.
Per-hop rewrites that cannot change the wire size (MACs, TTL, seq,
...) therefore cost one slot write and never touch the cached size.
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
    """Base class for protocol headers; subclasses define ``size_bytes``.

    Subclasses are ``@dataclass(slots=True)``. One whose ``size_bytes``
    can change after construction must say so with :func:`size_fields`
    and call :meth:`_touch` after any in-place mutation that dodges
    attribute assignment (e.g. appending to a list field); a packet
    never re-measures a header that has not told it to.
    """

    # ``_watcher``: the memo of the packet whose memoized size includes
    # this header (``repro.netsim.packet._Memo`` — it points at no
    # packet, so a header never keeps one alive or in a cycle).
    # ``_validated``: set by subclasses that validate themselves
    # (MmtHeader), cleared by every size-field write.
    __slots__ = ("_watcher", "_validated")

    #: True when ``size_bytes`` can change (set by :func:`size_fields`).
    _size_varies = False

    def _touch(self) -> None:
        """The wire size may have changed: withdraw any validation
        verdict and make the packet that memoized the size (if any) sum
        its headers again."""
        self._validated = False
        watcher = getattr(self, "_watcher", None)
        if watcher is not None:
            watcher.hsize = -1

    @property
    def size_bytes(self) -> int:
        raise NotImplementedError

    @property
    def name(self) -> str:
        return type(self).__name__

    def copy(self) -> "Header":
        """Shallow field-wise copy (headers hold only value types)."""
        return replace(self)


def size_fields(*names: str):
    """Class decorator, applied above ``@dataclass(slots=True)``:
    ``size_bytes`` depends on the named fields, so assigning one calls
    :meth:`Header._touch`. Every other field stays a plain slot."""

    def decorate(cls):
        for name in names:
            slot = cls.__dict__[name]
            setattr(cls, name, property(slot.__get__, _touching(slot.__set__)))
        cls._size_varies = True
        return cls

    return decorate


def _touching(write):
    def setter(self, value) -> None:
        write(self, value)
        self._touch()

    return setter


@dataclass(slots=True)
class EthernetHeader(Header):
    """Ethernet II header (14 bytes) plus the 4-byte FCS trailer."""

    src: str = "00:00:00:00:00:00"
    dst: str = "ff:ff:ff:ff:ff:ff"
    ethertype: int = EtherType.IPV4

    HEADER_BYTES = 14
    FCS_BYTES = 4

    @property
    def size_bytes(self) -> int:
        return 18  # HEADER_BYTES + FCS_BYTES

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

    @property
    def size_bytes(self) -> int:
        return 20

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

    @property
    def size_bytes(self) -> int:
        return 8

    def copy(self) -> "UdpHeader":
        return UdpHeader(src_port=self.src_port, dst_port=self.dst_port)


@size_fields("sack_blocks")
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

    @property
    def size_bytes(self) -> int:
        base = 20
        if self.sack_blocks:
            base += 2 + 8 * len(self.sack_blocks)
        return base
