"""Payload codecs for MMT control messages.

Control messages (NAK, deadline-miss, backpressure, heartbeat) travel
as MMT packets whose ``msg_type`` marks them; their small, fixed-format
payloads are encoded here. Data payloads are never interpreted by the
network (header-only processing, §5), but control payloads are consumed
by *endpoints and buffers*, which may be DTNs or smartNICs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

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


def _unpack(what: str, fmt: str, data: bytes) -> tuple:
    """Unpack a fixed-size payload, or say exactly how its length is off."""
    expected = struct.calcsize(fmt)
    if len(data) != expected:
        raise ControlCodecError(f"{what} payload length {len(data)} != {expected}")
    return struct.unpack(fmt, data)


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
class DeadlineMissPayload:
    """Report that a packet missed its delivery deadline (§5.3)."""

    seq: int
    deadline_ns: int
    observed_ns: int
    experiment_id: int

    _FORMAT = ">IQQI"

    def encode(self) -> bytes:
        return struct.pack(
            self._FORMAT, self.seq, self.deadline_ns, self.observed_ns, self.experiment_id
        )

    @classmethod
    def decode(cls, data: bytes) -> "DeadlineMissPayload":
        return cls(*_unpack("deadline-miss", cls._FORMAT, data))


@dataclass
class BackpressurePayload:
    """Ask the source to slow down to ``advised_rate_mbps`` (§5.1)."""

    advised_rate_mbps: int
    origin: str
    #: 0 = advisory, 1 = loss observed, 2 = severe (sustained loss).
    severity: int = 0

    _FORMAT = ">IIB"

    def encode(self) -> bytes:
        return struct.pack(
            self._FORMAT, self.advised_rate_mbps, pack_ipv4(self.origin), self.severity
        )

    @classmethod
    def decode(cls, data: bytes) -> "BackpressurePayload":
        rate, origin, severity = _unpack("backpressure", cls._FORMAT, data)
        return cls(rate, unpack_ipv4(origin), severity)


@dataclass
class ModeAnnouncePayload:
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

    _FORMAT = ">BIQ"

    def encode(self) -> bytes:
        return struct.pack(self._FORMAT, self.config_id, pack_ipv4(self.element), self.at_ns)

    @classmethod
    def decode(cls, data: bytes) -> "ModeAnnouncePayload":
        config_id, element, at_ns = _unpack("mode-announce", cls._FORMAT, data)
        return cls(config_id, unpack_ipv4(element), at_ns)


@dataclass
class WindowUpdatePayload:
    """Receiver-granted credits (FLOW_CONTROL): the sender may emit
    this many further messages. Credits are cumulative grants, not a
    window edge, so updates may arrive out of order harmlessly."""

    credits: int
    #: Receiver's delivered-message count when granting (diagnostics).
    delivered_total: int

    _FORMAT = ">IQ"

    def encode(self) -> bytes:
        return struct.pack(self._FORMAT, self.credits, self.delivered_total)

    @classmethod
    def decode(cls, data: bytes) -> "WindowUpdatePayload":
        return cls(*_unpack("window", cls._FORMAT, data))


@dataclass
class HeartbeatPayload:
    """Periodic sender report: highest seq sent, letting receivers
    detect tail loss (a gap after the final data packet)."""

    highest_seq: int
    packets_sent: int

    _FORMAT = ">IQ"

    def encode(self) -> bytes:
        return struct.pack(self._FORMAT, self.highest_seq, self.packets_sent)

    @classmethod
    def decode(cls, data: bytes) -> "HeartbeatPayload":
        return cls(*_unpack("heartbeat", cls._FORMAT, data))
