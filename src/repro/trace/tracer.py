"""The causal tracer: typed spans over the deterministic engine clock.

A :class:`Tracer` records :class:`TraceEvent` spans from cheap hook
points all over the stack — packet ingress/egress per element, queue
residency, mode transitions, age/``aged`` stamping, NAK emission →
forwarding → retransmission chains, buffer failover re-stamps, fault
actions. Every event carries a *trace identity* ``(experiment, flow,
seq)``, so the full life of one packet — and every recovery event that
descended from it — reconstructs by identity alone: child spans (NAKs,
retransmissions) inherit the identity of the data packet they recover.

Hook sites follow the :class:`~repro.telemetry.registry.MetricsRegistry`
zero-overhead-when-disabled discipline, but one step cheaper: a
component holds ``self.tracer = None`` by default and every hook is a
single attribute load plus ``is not None`` test — the disabled path
adds no calls at all (pinned by ``tests/dataplane/test_call_budget.py``).

Spans are rows of a columnar log, not objects: :meth:`Tracer.events`
builds one per span read; the exporter and INT check read the columns.

Flight recorder: with ``capacity=N`` the tracer keeps a bounded ring of
the most recent spans *plus* every span belonging to an anomalous
packet (one that aged, was lost on a link, was retransmitted, missed a
deadline, or was given up on). The moment an identity turns anomalous
its spans already in the ring are pinned where they lie — they stop
counting against ``capacity`` and eviction steps over them — and every
later span for it is pinned as it is recorded, so a post-mortem always
has the complete story for the packets that went wrong, at a memory
cost bounded by N plus the (rare) anomalies. Pinning an identity is a
set-add and a counter move, never a walk of the ring: what a run keeps
costs O(1) to keep. ``capacity=None`` retains everything.

Timestamps come from the simulator clock at emit time, so traces from
identical seeded runs are byte-identical when exported (pinned by a
golden digest, like the PR 4 wire-trace pins).
"""

from __future__ import annotations

from array import array
from itertools import accumulate, islice
from operator import attrgetter
from typing import TYPE_CHECKING, Iterator

from ..core.header import MmtHeader

if TYPE_CHECKING:
    from ..netsim.engine import Simulator
    from ..netsim.packet import Packet

#: Event kinds that mark their packet identity as *anomalous*: every
#: span of that identity — past and future — is retained by the flight
#: recorder regardless of ring capacity. The classes of the issue
#: ("aged, lost, retransmitted, degraded") map to: age stamping in the
#: network / aged arrival, wire loss, the whole NAK→retransmit chain,
#: unmet recovery (buffer miss / give-up), and deadline misses.
ANOMALY_KINDS = frozenset(
    {
        "age.aged",
        "packet.aged",
        "link.drop",
        "port.drop",
        "element.drop",
        "nak.send",
        "nak.forward",
        "nak.giveup",
        "retx.send",
        "retx.recv",
        "buffer.miss",
        "deadline.miss",
    }
)


#: Attr-key tuple → ``(its interned copy, its length)``: the spans of
#: one call site (about a dozen shapes exist) share one key tuple.
_SHAPES: dict[tuple, tuple[tuple, int]] = {}

#: Spans per chunk of the log; eviction frees a chunk as it leaves it.
_CHUNK = 4096


class TraceEvent:
    """One recorded span/event, as a reader sees it.

    ``experiment_id``/``flow_id``/``seq`` are the trace identity; any of
    them may be ``None`` for events outside a packet's sequenced life
    (mode-0 traffic before sequence assignment, fault actions, engine
    housekeeping). ``attrs`` holds small JSON-safe extras (ints/strs),
    kept as the shape's key tuple plus a value tuple. The tracer itself
    holds columns, not these: it builds one per span read.
    """

    __slots__ = (
        "id", "ts_ns", "kind", "element", "experiment_id", "flow_id", "seq",
        "attr_keys", "attr_values",
    )

    def __init__(
        self,
        id: int,
        ts_ns: int,
        kind: str,
        element: str,
        experiment_id: int | None = None,
        flow_id: int | None = None,
        seq: int | None = None,
        attrs: dict | None = None,
    ) -> None:
        self.id = id
        self.ts_ns = ts_ns
        self.kind = kind
        self.element = element
        self.experiment_id = experiment_id
        self.flow_id = flow_id
        self.seq = seq
        if attrs:
            keys = tuple(attrs)
            self.attr_keys = _SHAPES.setdefault(keys, (keys, len(keys)))[0]
            self.attr_values = tuple(attrs.values())
        else:
            self.attr_keys = self.attr_values = ()

    @property
    def attrs(self) -> dict | None:  # a copy: writes to it are not kept
        return dict(zip(self.attr_keys, self.attr_values)) if self.attr_keys else None

    @property
    def identity(self) -> tuple[int, int, int] | None:
        """``(experiment, flow, seq)`` when fully identified, else None."""
        if self.experiment_id is None or self.seq is None:
            return None
        return (self.experiment_id, self.flow_id or 0, self.seq)

    def to_dict(self) -> dict:
        record = {
            "id": self.id,
            "ts": self.ts_ns,
            "ev": self.kind,
            "element": self.element,
            "exp": self.experiment_id,
            "flow": self.flow_id,
            "seq": self.seq,
        }
        if self.attr_keys:
            record["attrs"] = self.attrs
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "TraceEvent":
        return cls(
            id=record["id"],
            ts_ns=record["ts"],
            kind=record["ev"],
            element=record["element"],
            experiment_id=record.get("exp"),
            flow_id=record.get("flow"),
            seq=record.get("seq"),
            attrs=record.get("attrs") or None,
        )

    def __repr__(self) -> str:
        ident = self.identity
        tag = f" {ident[0]}/{ident[1]}/{ident[2]}" if ident else ""
        return f"TraceEvent#{self.id}[{self.ts_ns}ns {self.element} {self.kind}{tag}]"


class _Columns:
    """A chunk of spans, one column per field; row ``i``'s attr values
    are ``values[offsets[i]:offsets[i + 1]]``. The tracer's chunks are
    preallocated and filled by index (no call per field), with ``ts``
    and ``offsets`` in ``array('q')`` and ``id`` a ``range``."""

    __slots__ = ("id", "ts", "kind", "element", "exp", "flow", "seq", "keys", "offsets", "values")

    def __init__(self, base: int) -> None:
        self.id = range(base, base + _CHUNK)
        self.ts, self.offsets = array("q", [0]) * _CHUNK, array("q", [0]) * (_CHUNK + 1)
        self.kind, self.element, self.exp, self.flow, self.seq, self.keys = (
            [None] * _CHUNK for _ in range(6))
        self.values: list = []

    @classmethod
    def of(cls, events: list[TraceEvent]) -> "_Columns":
        """Records packed as columns of plain Python values."""
        columns = cls.__new__(cls)
        (columns.id, columns.ts, columns.kind, columns.element, columns.exp, columns.flow,
         columns.seq, columns.keys) = zip(*map(attrgetter(
             "id", "ts_ns", "kind", "element", "experiment_id", "flow_id", "seq", "attr_keys"),
             events))
        columns.offsets = list(accumulate(map(len, columns.keys), initial=0))
        columns.values = [value for event in events for value in event.attr_values]
        return columns

    def rows(self, lo: int, hi: int):
        """Rows ``lo:hi`` as ``(id, ts, kind, element, exp, flow, seq,
        keys, start, stop)``: attr values are ``values[start:stop]``."""
        return zip(self.id[lo:hi], self.ts[lo:hi], self.kind[lo:hi], self.element[lo:hi],
                   self.exp[lo:hi], self.flow[lo:hi], self.seq[lo:hi], self.keys[lo:hi],
                   self.offsets[lo:hi], self.offsets[lo + 1:hi + 1])

    def events(self, lo: int, hi: int) -> Iterator[TraceEvent]:
        values = self.values
        for id, ts, kind, element, exp, flow, seq, keys, start, stop in self.rows(lo, hi):
            event = TraceEvent.__new__(TraceEvent)
            event.id, event.ts_ns, event.kind, event.element = id, ts, kind, element
            event.experiment_id, event.flow_id, event.seq = exp, flow, seq
            event.attr_keys, event.attr_values = keys, tuple(values[start:stop])
            yield event


class Spans:
    """Spans in id order, read-only: ``segments`` of ``(chunk, lo, hi)``
    column rows, which build a :class:`TraceEvent` per item read and
    keep none. Readers that walk fields take ``Spans.of(events).segments``."""

    __slots__ = ("segments", "_len")

    def __init__(self, segments: list[tuple[_Columns, int, int]]) -> None:
        self.segments = segments
        self._len = sum(hi - lo for _chunk, lo, hi in segments)

    @classmethod
    def of(cls, events) -> "Spans":
        """``events`` itself, or its records packed ``_CHUNK`` at a time."""
        if isinstance(events, Spans):
            return events
        records = iter(events)
        batches = iter(lambda: list(islice(records, _CHUNK)), [])
        return cls([(_Columns.of(batch), 0, len(batch)) for batch in batches])

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[TraceEvent]:
        for chunk, lo, hi in self.segments:
            yield from chunk.events(lo, hi)

    def __getitem__(self, index):
        wanted = range(self._len)[index]  # a list's negative indices, slices and IndexError
        if isinstance(wanted, range):
            return [self[i] for i in wanted]
        for chunk, lo, hi in self.segments:
            if wanted < hi - lo:
                return next(chunk.events(lo + wanted, lo + wanted + 1))
            wanted -= hi - lo


class Tracer:
    """Records spans; a flight recorder when ``capacity`` is bounded.

    The tracer is never installed when tracing is off — components keep
    ``tracer = None`` and hook sites test that, so there is no "disabled
    tracer" object (and no per-packet no-op calls) to pay for.
    """

    def __init__(self, sim: "Simulator", capacity: int | None = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive or None, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.events_emitted = 0
        self.events_evicted = 0
        #: The ring: every span from ``_head`` on, in emission order, in
        #: chunks of ``_CHUNK`` rows. ``capacity`` bounds its unpinned spans.
        self._chunks: list[_Columns] = []
        #: Id of the oldest span in the ring (eviction advances it).
        self._head = 0
        #: How many spans in the ring are pinned.
        self._ring_pinned = 0
        #: identity → how many unpinned spans of it the ring holds.
        self._live: dict[tuple[int, int, int], int] = {}
        #: Pinned spans eviction met at the ring head, copied out.
        self._pinned: list[TraceEvent] = []
        self._anomalous: set[tuple[int, int, int]] = set()
        #: Elements whose spans are pinned wholesale (SLO watchdogs pin
        #: the component that breached an objective; its spans have no
        #: packet identity to pin by).
        self._pinned_elements: set[str] = set()
        #: packet_id → enqueue time for queue-residency spans.
        self._enqueued_at: dict[int, int] = {}

    # -- recording -----------------------------------------------------------

    def emit(
        self,
        kind: str,
        element: str,
        experiment_id: int | None = None,
        flow_id: int | None = None,
        seq: int | None = None,
        **attrs,
    ) -> None:
        """Record one event, timestamped off the engine clock."""
        span = self.events_emitted
        self.events_emitted = span + 1
        if not span % _CHUNK:
            self._chunks.append(_Columns(span))
        chunk, row = self._chunks[-1], span % _CHUNK
        chunk.ts[row], chunk.kind[row], chunk.element[row] = self.sim.now, kind, element
        chunk.exp[row], chunk.flow[row], chunk.seq[row] = experiment_id, flow_id, seq
        keys = tuple(attrs)
        try:
            keys, width = _SHAPES[keys]
        except KeyError:
            keys, width = _SHAPES[keys] = keys, len(keys)
        chunk.keys[row] = keys
        chunk.values += attrs.values()
        chunk.offsets[row + 1] = chunk.offsets[row] + width
        if experiment_id is None or seq is None:
            identity = None
        else:
            identity = (experiment_id, flow_id or 0, seq)
            if identity in self._anomalous:
                self._ring_pinned += 1
                return
            if kind in ANOMALY_KINDS:
                self._mark_anomalous(identity)
                self._ring_pinned += 1
                return
        if element in self._pinned_elements:
            self._ring_pinned += 1
            return
        if identity is not None:
            live = self._live
            live[identity] = live.get(identity, 0) + 1
        capacity = self.capacity
        if capacity is not None and span + 1 - self._head - self._ring_pinned > capacity:
            self._evict()

    def packet_event(self, kind: str, element: str, packet: "Packet", **attrs) -> None:
        """Record an event for an in-flight packet (identity from its
        MMT header; non-MMT packets are not traced)."""
        mmt = packet.find(MmtHeader)
        if mmt is None:
            return
        self.emit(
            kind,
            element,
            mmt.experiment_id,
            mmt.flow_id or 0,
            mmt.seq,
            msg=mmt.msg_type.name,
            **attrs,
        )

    def note_enqueue(self, packet: "Packet") -> None:
        """Ports call this when a packet joins an egress queue it will
        wait in (a packet the transmitter takes at once is not booked)."""
        self._enqueued_at[packet.packet_id] = self.sim.now

    def queue_wait(self, packet: "Packet", element: str, port: str) -> None:
        """Ports call this when a packet starts serializing; emits a
        ``queue.wait`` residency span when the packet actually waited
        (zero-wait transits stay implicit — they carry no information
        and would dominate the ring)."""
        enqueued = self._enqueued_at.pop(packet.packet_id, None)
        if enqueued is None:
            return
        wait = self.sim.now - enqueued
        if wait <= 0:
            return
        self.packet_event("queue.wait", element, packet, port=port, wait_ns=wait)

    def queue_discard(self, packet: "Packet", element: str, port: str, reason: str) -> None:
        """Ports call this when the queue discards a packet it had
        admitted (push-out victim, late shed): the packet will never
        start serializing, so forget its enqueue and record the drop."""
        self._enqueued_at.pop(packet.packet_id, None)
        self.packet_event("port.drop", element, packet, port=port, reason=reason)

    def _mark_anomalous(self, identity: tuple[int, int, int]) -> None:
        """Pin an identity where its spans lie: those in the ring stop
        counting against capacity; nothing is moved or scanned."""
        self._anomalous.add(identity)
        self._ring_pinned += self._live.pop(identity, 0)

    def _left_ring(self, chunk: _Columns, row: int) -> bool:
        """Settle the counts for a span taken out of the ring; True when
        it was pinned (so it must be kept, not dropped)."""
        exp, seq = chunk.exp[row], chunk.seq[row]
        identity = None if exp is None or seq is None else (exp, chunk.flow[row] or 0, seq)
        if identity in self._anomalous or chunk.element[row] in self._pinned_elements:
            self._ring_pinned -= 1
            return True
        if identity is not None:
            live = self._live
            count = live[identity] - 1
            if count:
                live[identity] = count
            else:
                del live[identity]
        return False

    def _evict(self) -> None:
        """Drop the oldest unpinned span, copying pinned ones met at the
        head out to ``_pinned``: each span passes the head once, so this
        is O(1) amortised, and a chunk goes when the head leaves it."""
        while True:
            chunk, row = self._chunks[0], self._head % _CHUNK
            self._head += 1
            if row == _CHUNK - 1:
                del self._chunks[0]
            if not self._left_ring(chunk, row):
                self.events_evicted += 1
                return
            self._pinned.extend(chunk.events(row, row + 1))

    def pin_element(self, element: str) -> None:
        """Pin every retained and future span of one element.

        The SLO watchdog's anomaly identity is the violating metric's
        labels, not a packet — pinning by element keeps the breached
        component's whole timeline out of ring eviction. Rare (once per
        breached component), so unlike an identity it is pinned by
        walking the ring and settling each of its spans' counts.
        """
        if element in self._pinned_elements:
            return
        for chunk, lo, hi in self._segments():
            for row in range(lo, hi):
                if chunk.element[row] == element:
                    self._left_ring(chunk, row)
                    self._ring_pinned += 1
        self._pinned_elements.add(element)

    # -- reading -------------------------------------------------------------

    def _segments(self) -> list[tuple[_Columns, int, int]]:
        """The ring as ``(chunk, lo, hi)`` row runs, oldest first."""
        head, stop = self._head, self.events_emitted
        return [(chunk, max(head - chunk.id.start, 0), min(stop - chunk.id.start, _CHUNK))
                for chunk in self._chunks]

    def events(self) -> Spans:
        """All retained events (copied-out pinned, then the ring) in
        emission order; each is built as it is read."""
        return Spans(Spans.of(self._pinned).segments + self._segments())

    @property
    def events_retained(self) -> int:
        return self.events_emitted - self._head + len(self._pinned)

    @property
    def events_pinned(self) -> int:
        """Spans eviction cannot reach, wherever they are held."""
        return len(self._pinned) + self._ring_pinned

    def anomalous_identities(self) -> set[tuple[int, int, int]]:
        """Identities the flight recorder pinned (copy)."""
        return set(self._anomalous)

    def pinned_elements(self) -> set[str]:
        """Elements pinned wholesale via :meth:`pin_element` (copy)."""
        return set(self._pinned_elements)

    def timeline(
        self, experiment_id: int, flow_id: int, seq: int
    ) -> list[TraceEvent]:
        """Every retained span of one packet identity, causally ordered
        (time, then emission order breaks ties at equal timestamps —
        emission order *is* causal order inside one engine event)."""
        from .timeline import select_timeline

        identity = (experiment_id, flow_id or 0, seq)  # only matching rows are built
        rows = ((chunk, row) for chunk, lo, hi in self.events().segments for row in range(lo, hi)
                if (chunk.exp[row], chunk.flow[row] or 0, chunk.seq[row]) == identity)
        return select_timeline([next(c.events(r, r + 1)) for c, r in rows], *identity)
