"""Payload codecs for MMT control messages.

Control messages (NAK, deadline-miss, backpressure, mode-announce,
window, heartbeat) travel as MMT packets whose ``msg_type`` marks them;
their small payloads are encoded here. All but the NAK have a fixed
format, declared once per class and served by one shared codec. Data
payloads are never interpreted by the network (header-only processing,
§5), but control payloads are consumed by *endpoints and buffers*,
which may be DTNs or smartNICs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from operator import attrgetter

from .features import Feature, MsgType
from .header import MmtHeader, pack_ipv4, unpack_ipv4


class ControlCodecError(ValueError):
    """Raised on malformed control payloads."""


def control_message(
    msg_type: MsgType, message, experiment_id: int, config_id: int = 0, flow_id: int = 0
) -> tuple[MmtHeader, bytes]:
    """Header and encoded payload of one control message, ready for the
    sending node's primitive (``MmtStack.send_control(dst, *...)``,
    ``Metadata.emit(dst, *...)`` in a pipeline program). Flow 0 travels
    without the FLOW_ID extension, so single-flow control messages stay
    byte-identical to the pre-flow-id wire format."""
    header = MmtHeader(
        config_id=config_id,
        features=Feature.FLOW_ID if flow_id else Feature.NONE,
        msg_type=msg_type,
        experiment_id=experiment_id,
        flow_id=flow_id if flow_id else None,
    )
    return header, message.encode()


def decode_control(codec, packet):
    """The one place a control payload is parsed (stacks and elements
    both come here): the decoded message, or None when the payload is
    absent or malformed — the caller counts that as ``rx_malformed`` and
    drops the packet, so hostile input never raises out of the run."""
    if packet.payload is None:
        return None
    try:
        return codec.decode(packet.payload)
    except ControlCodecError:
        return None


class _FixedPayload:
    """A control payload of fixed size: its fields, in declaration
    order, packed as one struct. A subclass declares the struct format
    and which fields are IPv4 addresses (dotted quads, u32 on the wire):
    ``class P(_FixedPayload, what="...", fmt=">IQ", ipv4=("origin",))``.
    """

    def __init_subclass__(cls, *, what: str, fmt: str, ipv4: tuple[str, ...] = ()) -> None:
        names = tuple(cls.__annotations__)
        cls._what = what
        cls._struct = struct.Struct(fmt)
        cls._fields = attrgetter(*names)
        cls._ipv4 = tuple(names.index(name) for name in ipv4)

    def encode(self) -> bytes:
        values = list(self._fields(self))
        for index in self._ipv4:
            values[index] = pack_ipv4(values[index])
        return self._struct.pack(*values)

    @classmethod
    def decode(cls, data: bytes):
        """Parse ``data``, or say exactly how its length is off."""
        size = cls._struct.size
        if len(data) != size:
            raise ControlCodecError(f"{cls._what} payload length {len(data)} != {size}")
        values = list(cls._struct.unpack(data))
        for index in cls._ipv4:
            values[index] = unpack_ipv4(values[index])
        return cls(*values)


@dataclass(frozen=True)
class SeqRange:
    """An inclusive range of missing sequence numbers."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if not 0 <= self.start <= self.end <= 0xFFFFFFFF:
            raise ControlCodecError(f"bad seq range [{self.start}, {self.end}]")

    def __len__(self) -> int:
        return self.end - self.start + 1

    def __iter__(self):
        return iter(range(self.start, self.end + 1))


@dataclass
class NakPayload:
    """A negative acknowledgement: ranges of sequence numbers to resend.

    Sent by a receiver to the header's ``buffer_addr`` — the nearest
    upstream retransmission buffer, not necessarily the source (§5.3).
    """

    ranges: list[SeqRange] = field(default_factory=list)

    MAX_RANGES = 0xFFFF

    def encode(self) -> bytes:
        if len(self.ranges) > self.MAX_RANGES:
            raise ControlCodecError(f"too many ranges: {len(self.ranges)}")
        out = bytearray(struct.pack(">H", len(self.ranges)))
        for item in self.ranges:
            out += struct.pack(">II", item.start, item.end)
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> "NakPayload":
        if len(data) < 2:
            raise ControlCodecError("truncated NAK payload")
        (count,) = struct.unpack(">H", data[:2])
        expected = 2 + count * 8
        if len(data) != expected:
            raise ControlCodecError(
                f"NAK payload length {len(data)} != expected {expected}"
            )
        ranges = []
        for i in range(count):
            start, end = struct.unpack_from(">II", data, 2 + i * 8)
            ranges.append(SeqRange(start, end))
        return cls(ranges=ranges)

    @classmethod
    def from_ranges(cls, spans: list[tuple[int, int]]) -> "NakPayload":
        """Coalesce inclusive ``(start, end)`` spans in any order into ranges."""
        merged: list[list[int]] = []
        for start, end in sorted(spans):
            if merged and start <= merged[-1][1] + 1:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        return cls(ranges=[SeqRange(start, end) for start, end in merged])

    @classmethod
    def from_sequence_numbers(cls, missing: list[int]) -> "NakPayload":
        """Coalesce a sorted-or-not list of seqnos into ranges."""
        return cls.from_ranges([(seq, seq) for seq in missing])


@dataclass
class DeadlineMissPayload(_FixedPayload, what="deadline-miss", fmt=">IQQI"):
    """Report that a packet missed its delivery deadline (§5.3)."""

    seq: int
    deadline_ns: int
    observed_ns: int
    experiment_id: int


@dataclass
class BackpressurePayload(_FixedPayload, what="backpressure", fmt=">IIB", ipv4=("origin",)):
    """Ask the source to slow down to ``advised_rate_mbps`` (§5.1)."""

    advised_rate_mbps: int
    origin: str
    #: 0 = advisory, 1 = loss observed, 2 = severe (sustained loss).
    severity: int = 0


@dataclass
class ModeAnnouncePayload(_FixedPayload, what="mode-announce", fmt=">BIQ", ipv4=("element",)):
    """An on-path element tells the source how its stream is being
    carried downstream (§4.2: "exchanging control messaging about
    multi-modal transports can provide a foundation for reasoning
    about end-to-end behavior in terms of hop-by-hop behavior")."""

    #: The mode the element rewrote the stream into.
    config_id: int
    #: The element's address (who is processing the stream).
    element: str
    #: When the transition happened (element-local clock).
    at_ns: int


@dataclass
class WindowUpdatePayload(_FixedPayload, what="window", fmt=">IQ"):
    """Receiver-granted credits (FLOW_CONTROL): the sender may emit
    this many further messages. Credits are cumulative grants, not a
    window edge, so updates may arrive out of order harmlessly."""

    credits: int
    #: Receiver's delivered-message count when granting (diagnostics).
    delivered_total: int


@dataclass
class HeartbeatPayload(_FixedPayload, what="heartbeat", fmt=">IQ"):
    """Periodic sender report: highest seq sent, letting receivers
    detect tail loss (a gap after the final data packet)."""

    highest_seq: int
    packets_sent: int
