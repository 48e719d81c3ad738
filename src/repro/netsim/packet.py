"""Simulated packets: one slot per header kind plus a (usually virtual) payload.

A :class:`Packet` is the unit that flows through links, queues, switches,
and dataplane pipelines. Like a parsed packet in P4, it is a fixed set
of header instances, each valid or not: ``eth``, ``ip``, ``l4`` (UDP or
TCP), ``mmt`` and ``int_``, ``None`` when the packet has no such header.
Payload bytes are represented by ``payload_size`` and only materialized
as real bytes when a component needs them (e.g. codec tests).

``meta`` is a dict of simulation-only bookkeeping (flow id, creation
time, per-hop timestamps); it contributes zero bytes on the wire.

``size_bytes`` is a plain int: the header sizes and the payload, summed
once at construction. After that a header's size changes only through
the packet: :meth:`Packet.attach` and :meth:`Packet.detach` validate and
invalidate a slot (INT marking and removal), and :meth:`Packet.rewrite`
runs an in-place change that returns the bytes it added (a mode
rewrite, an INT postcard push). Reading a header or the size is an
attribute read, and nothing a packet owns points back at it, so a
packet is freed by refcount, never by the cycle collector.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable

from .headers import EthernetHeader, Header, Ipv4Header

_packet_ids = itertools.count()

#: Header slots, outermost first.
SLOTS = ("eth", "ip", "l4", "mmt", "int_")


class Packet:
    """A packet: one optional header per slot and a counted payload."""

    __slots__ = (*SLOTS, "payload_size", "payload", "meta", "packet_id", "size_bytes")

    def __init__(
        self,
        payload_size: int = 0,
        payload: bytes | None = None,
        meta: dict[str, Any] | None = None,
        packet_id: int | None = None,
        *,
        eth: EthernetHeader | None = None,
        ip: Ipv4Header | None = None,
        l4: Header | None = None,
        mmt: Header | None = None,
        int_: Header | None = None,
    ) -> None:
        self.eth, self.ip, self.l4, self.mmt, self.int_ = eth, ip, l4, mmt, int_
        if payload is not None:
            payload_size = len(payload)
        if payload_size < 0:
            raise ValueError(f"payload_size must be >= 0, got {payload_size}")
        self.payload_size = payload_size
        self.payload = payload
        self.meta = {} if meta is None else meta
        self.packet_id = next(_packet_ids) if packet_id is None else packet_id
        size = payload_size
        for header in (eth, ip, l4, mmt, int_):
            if header is not None:
                size += header.size_bytes
        self.size_bytes = size

    @property
    def headers(self) -> tuple[Header, ...]:
        """The valid headers, outermost first."""
        return tuple(filter(None, (self.eth, self.ip, self.l4, self.mmt, self.int_)))

    def attach(self, header: Header) -> None:
        """Fill ``header``'s slot, which must be empty; its bytes join the size."""
        if getattr(self, header.slot) is not None:
            raise ValueError(f"two {header.slot} headers in one packet")
        setattr(self, header.slot, header)
        self.size_bytes += header.size_bytes

    def detach(self, slot: str) -> Header | None:
        """Empty ``slot`` and return its header; its bytes leave the size."""
        header = getattr(self, slot)
        if header is not None:
            setattr(self, slot, None)
            self.size_bytes -= header.size_bytes
        return header

    def rewrite(self, slot: str, change: Callable[..., int], *args: Any) -> int:
        """Run ``change(header, *args)`` on the header in ``slot``; it returns
        the bytes it added (negative: removed), and the size moves by as much."""
        self.size_bytes += (delta := change(getattr(self, slot), *args))
        return delta

    def copy(self) -> "Packet":
        """Deep-enough copy for in-network duplication.

        Headers are copied field-wise (so the duplicate can be rewritten
        independently); the payload reference is shared (it is immutable
        bytes); ``meta`` is shallow-copied; the copy gets a fresh id.
        """
        return Packet(
            **{header.slot: header.copy() for header in self.headers},
            payload_size=self.payload_size,
            payload=self.payload,
            meta=dict(self.meta),
        )

    def __repr__(self) -> str:
        names = "/".join(type(h).__name__ for h in self.headers) or "raw"
        return f"Packet#{self.packet_id}[{names} +{self.payload_size}B]"
