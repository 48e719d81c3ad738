"""Simulated packets: a stack of headers plus a (usually virtual) payload.

A :class:`Packet` is the unit that flows through links, queues, switches,
and dataplane pipelines. Headers are ordered outermost-first. Payload
bytes are represented by ``payload_size`` and only materialized as real
bytes when a component needs them (e.g. codec tests).

``meta`` carries simulation-only bookkeeping (flow id, creation time,
per-hop timestamps); it contributes zero bytes on the wire.

Performance notes (see README "Performance"): packets are allocated and
sized millions of times per run, so

- instances use ``__slots__`` and the ``meta`` dict is allocated lazily
  on first access (control packets often never touch it);
- the header stack is a :class:`list` subclass: it holds three to five
  headers, so a change at the outermost end is a 40-byte memmove, and
  a run holds thousands of packets in queues at once, so the
  container's weight is what counts (~105 bytes for three headers; a
  ``deque`` allocates a 64-pointer block whatever it holds, ~780).
  Iteration is outermost-first;
- :attr:`Packet.size_bytes` memoizes the header-size sum. Summing
  makes the packet's memo the *watcher* of each variable-size header in
  it; the sum is dropped by any structural change to the stack (every
  mutating list method tells the memo) and by size-affecting header
  writes (the header tells its watcher, see
  :class:`~repro.netsim.headers.Header`);
- :meth:`Packet.find` answers from an index of the stack's *shape* (its
  sequence of header types) shared by all packets of that shape: one
  isinstance scan per (shape, queried type), one pointer per packet;
- nothing a packet owns points back at it (the stack and watched
  headers point at its :class:`_Memo`, which points at nothing), so a
  packet is freed by refcount, never by the cycle collector.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Iterator, TypeVar

from .headers import Header

_packet_ids = itertools.count()

H = TypeVar("H", bound=Header)

#: Header-type sequence → {queried type → position of the outermost
#: match, -1 when absent}: a pure memo over a handful of shapes.
_SHAPE_INDEX: dict[tuple[type, ...], dict[type, int]] = {}

#: ``_Memo.index`` after a structural change: never written to, so the
#: next ``find`` misses and resolves the new shape.
_NO_INDEX: dict[type, int] = {}


class _Memo:
    """What one packet has derived from its header stack. The packet
    owns it; its stack and the variable-size headers it summed point at
    it; it points at no packet, stack or header."""

    __slots__ = ("hsize", "index")

    def restacked(self) -> None:
        """The header stack changed shape: forget what was derived from it."""
        self.hsize = -1  # memoized header-size sum; -1 = stale
        self.index = _NO_INDEX

    __init__ = restacked  # a new memo has derived nothing yet


def _restacking(method):
    """A ``list`` mutator that also tells the packet's memo."""

    def mutator(self, *args, **kwargs):
        result = method(self, *args, **kwargs)
        self._memo.restacked()
        return result

    return mutator


class _HeaderStack(list):
    """Outermost-first header list that drops its packet's memoized
    size and type index on every structural mutation: each mutator a
    ``list`` has is wrapped (slice assignment and deletion arrive
    through ``__setitem__``/``__delitem__``)."""

    __slots__ = ("_memo",)

    append = _restacking(list.append)
    pop = _restacking(list.pop)
    remove = _restacking(list.remove)
    insert = _restacking(list.insert)
    extend = _restacking(list.extend)
    clear = _restacking(list.clear)
    sort = _restacking(list.sort)
    reverse = _restacking(list.reverse)
    __setitem__ = _restacking(list.__setitem__)
    __delitem__ = _restacking(list.__delitem__)
    __iadd__ = _restacking(list.__iadd__)
    __imul__ = _restacking(list.__imul__)


class Packet:
    """A packet with an outermost-first header stack and a counted payload."""

    __slots__ = ("_headers", "payload_size", "payload", "_meta", "packet_id", "_memo")

    def __init__(
        self,
        headers: Iterable[Header] | None = None,
        payload_size: int = 0,
        payload: bytes | None = None,
        meta: dict[str, Any] | None = None,
        packet_id: int | None = None,
    ) -> None:
        self._headers = stack = _HeaderStack(headers or ())
        self._memo = stack._memo = _Memo()
        if payload is not None:
            payload_size = len(payload)
        if payload_size < 0:
            raise ValueError(f"payload_size must be >= 0, got {payload_size}")
        self.payload_size = payload_size
        self.payload = payload
        self._meta = meta
        self.packet_id = next(_packet_ids) if packet_id is None else packet_id

    @property
    def headers(self) -> _HeaderStack:
        """The header stack, outermost-first (a list)."""
        return self._headers

    @property
    def meta(self) -> dict[str, Any]:
        """Simulation-only bookkeeping, allocated on first access."""
        meta = self._meta
        if meta is None:
            meta = self._meta = {}
        return meta

    @property
    def size_bytes(self) -> int:
        """Total on-wire size: all headers plus payload (memoized)."""
        size = self._memo.hsize
        if size < 0:
            size = self._measure()
        return size + self.payload_size

    def _measure(self) -> int:
        """Sum and memoize the header sizes; the memo becomes the
        watcher of every variable-size header. A header shared by two
        packets has one watcher at a time: taking it over un-memoizes
        the other."""
        memo = self._memo
        total = 0
        for header in self._headers:
            total += header.size_bytes
            if header._size_varies:
                watcher = getattr(header, "_watcher", None)
                if watcher is not memo:
                    if watcher is not None:
                        watcher.hsize = -1
                    header._watcher = memo
        memo.hsize = total
        return total

    def find(self, header_type: type[H]) -> H | None:
        """Return the first (outermost) header of the given type, or None."""
        try:
            position = self._memo.index[header_type]
        except KeyError:
            position = self._locate(header_type)
        return self._headers[position] if position >= 0 else None

    def _locate(self, header_type: type[Header]) -> int:
        """:meth:`find` off the fast path: resolve the stack's shape
        index if stale, scan if this shape was never asked for the type."""
        memo = self._memo
        index = memo.index
        if index is _NO_INDEX:
            shape = tuple(map(type, self._headers))
            index = memo.index = _SHAPE_INDEX.setdefault(shape, {})
        position = index.get(header_type)
        if position is None:
            position = index[header_type] = next(
                (i for i, h in enumerate(self._headers) if isinstance(h, header_type)), -1
            )
        return position

    def require(self, header_type: type[H]) -> H:
        """Like :meth:`find` but raises ``KeyError`` when absent."""
        header = self.find(header_type)
        if header is None:
            raise KeyError(f"packet {self.packet_id} has no {header_type.__name__}")
        return header

    def copy(self) -> "Packet":
        """Deep-enough copy for in-network duplication.

        Headers are copied field-wise (so the duplicate can be rewritten
        independently); the payload reference is shared (it is immutable
        bytes); ``meta`` is shallow-copied; the copy gets a fresh id.
        """
        return Packet(
            headers=[h.copy() for h in self._headers],
            payload_size=self.payload_size,
            payload=self.payload,
            meta=dict(self._meta) if self._meta is not None else None,
        )

    def __iter__(self) -> Iterator[Header]:
        return iter(self._headers)

    def __repr__(self) -> str:
        names = "/".join(type(h).__name__ for h in self._headers) or "raw"
        return f"Packet#{self.packet_id}[{names} +{self.payload_size}B]"
