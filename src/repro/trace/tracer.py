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

Spans are fixed-width rows, not objects: a clock, a site code naming
the call site's kind, element and attr keys, the identity as ints, and
the attr values. :meth:`Tracer.events` builds an object per span read;
the exporter and INT check read codes and ints.

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
from itertools import islice
from math import floor
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


#: A typed attr-key tuple (see :func:`_typed`) → its interned copy: the
#: spans of one call site (about a dozen shapes exist) share one tuple.
_SHAPES: dict[tuple, tuple] = {}

#: Site code → ``(kind, element, attr keys)``. Code 0 stands for "this
#: row is in its chunk's escape table"; a run has a few dozen others.
_SITES: list[tuple] = [(None, None, ())]
#: ``(kind, element, typed attr keys)`` → ``(site code, attr count)``.
_CODES: dict[tuple, tuple[int, int]] = {}

#: An identity column's ``None``: a field that *is* this value escapes.
_NONE = -(2**63)
#: The types an identity column holds (``None`` as :data:`_NONE`).
_INT_OR_NONE = frozenset({int, type(None)})

#: Spans per chunk of the log; eviction frees a chunk as it leaves it.
_CHUNK = 4096


def _typed(keys: tuple) -> tuple:
    """``keys`` as a table key that tells the equal keys ``1``, ``True``
    and ``1.0`` apart: ``str`` keys stand for themselves."""
    return keys if all(type(key) is str for key in keys) else (keys, tuple(map(repr, keys)))


def _site(kind, element, keys: tuple) -> tuple[int, int]:
    """``(code, attr count)`` of a span's site, interned the first time
    it is seen; code 0 when the kind or element is not a ``str`` or the
    uint16 codes are spent."""
    if type(kind) is not str or type(element) is not str or len(_SITES) > 0xFFFF:
        return 0, len(keys)
    key = kind, element, _typed(keys)
    if key not in _CODES:
        _CODES[key] = len(_SITES), len(keys)
        _SITES.append((kind, element, _SHAPES.setdefault(key[2], keys)))
    return _CODES[key]


def _clock(ts) -> int:
    """An escaped row's clock column, which only bisection reads."""
    try:
        return min(max(floor(ts), -(2**63)), 2**63 - 1)
    except (TypeError, ValueError, OverflowError):
        return 0


class TraceEvent:
    """One recorded span/event, as a reader sees it.

    ``experiment_id``/``flow_id``/``seq`` are the trace identity; any of
    them may be ``None`` for events outside a packet's sequenced life
    (mode-0 traffic before sequence assignment, fault actions, engine
    housekeeping). ``attrs`` holds small JSON-safe extras (ints/strs),
    kept as the shape's key tuple plus a value tuple. The tracer itself
    holds rows, not these: it builds one per span read.
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
            self.attr_keys = _SHAPES.setdefault(_typed(keys), keys)
            self.attr_values = tuple(attrs.values())
        else:
            self.attr_keys = self.attr_values = ()

    @classmethod
    def _of(cls, row: tuple) -> "TraceEvent":
        """The event of a decoded row (see :meth:`_Columns.row`)."""
        event = cls.__new__(cls)
        (event.id, event.ts_ns, event.kind, event.element, event.experiment_id, event.flow_id,
         event.seq, event.attr_keys, event.attr_values) = row
        return event

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
    """A chunk of spans as fixed-width rows: an int64 clock, a uint16
    site code, the identity in int64 columns, and row ``i``'s attr values
    at ``values[offsets[i]:offsets[i + 1]]``. A row the columns cannot
    hold exactly (say a ``bool`` identity) has site code 0 and identity
    :data:`_NONE`, and keeps its fields as given in ``escapes``."""

    __slots__ = ("id", "ts", "site", "exp", "flow", "seq", "offsets", "values", "escapes")

    def __init__(self, ids, size: int) -> None:
        self.id = ids
        self.ts, self.exp, self.flow, self.seq = [array("q", [0]) * size for _ in range(4)]
        self.site = array("H", [0]) * size
        self.offsets = array("I", [0]) * (size + 1)
        self.values: list = []
        self.escapes: dict[int, tuple] = {}

    def put(self, row, id, ts, kind, element, exp, flow, seq, keys: tuple, values) -> None:
        """Write one span into row ``row`` (rows are written in order);
        :meth:`Tracer.emit` inlines the common case."""
        try:
            site, width = _CODES[kind, element, keys]
        except (KeyError, TypeError):  # unseen, or a key that does not hash
            site, width = _site(kind, element, keys)
        self.values += values
        self.offsets[row + 1] = self.offsets[row] + width
        if (site and type(id) is int and type(ts) is int and _NONE not in (exp, flow, seq)
                and type(exp) in _INT_OR_NONE and type(flow) in _INT_OR_NONE
                and type(seq) in _INT_OR_NONE):
            try:
                self.ts[row] = ts
                self.exp[row] = _NONE if exp is None else exp
                self.flow[row] = _NONE if flow is None else flow
                self.seq[row] = _NONE if seq is None else seq
                self.site[row] = site
                return
            except OverflowError:
                pass
        self.ts[row], self.site[row] = _clock(ts), 0
        self.exp[row] = self.flow[row] = self.seq[row] = _NONE
        self.escapes[row] = (id, ts, kind, element, exp, flow, seq, keys)

    def row(self, row: int) -> tuple:
        """Row ``row`` decoded: ``(id, ts, kind, element, exp, flow, seq,
        attr keys, attr values)``, the fields a :class:`TraceEvent` has."""
        values = tuple(self.values[self.offsets[row]:self.offsets[row + 1]])
        site = self.site[row]
        if not site:
            return *self.escapes[row], values
        kind, element, keys = _SITES[site]
        exp, flow, seq = self.exp[row], self.flow[row], self.seq[row]
        return (self.id[row], self.ts[row], kind, element, None if exp == _NONE else exp,
                None if flow == _NONE else flow, None if seq == _NONE else seq, keys, values)


class Spans:
    """Spans in id order, read-only: ``segments`` of ``(chunk, lo, hi)``
    rows, which build a :class:`TraceEvent` per item read and keep none.
    Readers that walk fields take ``Spans.of(events).segments``."""

    __slots__ = ("segments", "_len")

    def __init__(self, segments: list[tuple[_Columns, int, int]]) -> None:
        self.segments = segments
        self._len = sum(hi - lo for _chunk, lo, hi in segments)

    @classmethod
    def of(cls, events) -> "Spans":
        """``events`` itself, or its records packed ``_CHUNK`` at a time
        into rows, exactly as the tracer packs its spans."""
        if isinstance(events, Spans):
            return events
        records, segments = iter(events), []
        while batch := list(islice(records, _CHUNK)):
            chunk = _Columns([event.id for event in batch], len(batch))
            for row, e in enumerate(batch):
                chunk.put(row, e.id, e.ts_ns, e.kind, e.element, e.experiment_id, e.flow_id, e.seq,
                          e.attr_keys, e.attr_values)
            segments.append((chunk, 0, len(batch)))
        return cls(segments)

    def rows(self) -> Iterator[tuple]:
        """Every span decoded (see :meth:`_Columns.row`), in order."""
        for chunk, lo, hi in self.segments:
            yield from map(chunk.row, range(lo, hi))

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[TraceEvent]:
        return map(TraceEvent._of, self.rows())

    def __getitem__(self, index):
        wanted = range(self._len)[index]  # a list's negative indices, slices and IndexError
        if isinstance(wanted, range):
            return [self[i] for i in wanted]
        for chunk, lo, hi in self.segments:
            if wanted < hi - lo:
                return TraceEvent._of(chunk.row(lo + wanted))
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
        #: How many spans in the ring are pinned, and identity → how many
        #: unpinned spans of it the ring holds: books only a bounded
        #: tracer keeps (an unbounded one counts pins when asked).
        self._ring_pinned = 0
        self._live: dict[tuple[int, int, int], int] | None = None if capacity is None else {}
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
        row = span % _CHUNK
        if not row:
            self._chunks.append(_Columns(range(span, span + _CHUNK), _CHUNK))
        chunk, ts, keys = self._chunks[-1], self.sim.now, tuple(attrs)
        try:  # _Columns.put's common case, inline: a call per span costs more
            site, width = _CODES[kind, element, keys]
            if not (type(ts) is int and _NONE not in (experiment_id, flow_id, seq)
                    and type(experiment_id) in _INT_OR_NONE and type(flow_id) in _INT_OR_NONE
                    and type(seq) in _INT_OR_NONE):
                raise TypeError
            chunk.ts[row] = ts
            chunk.exp[row] = _NONE if experiment_id is None else experiment_id
            chunk.flow[row] = _NONE if flow_id is None else flow_id
            chunk.seq[row] = _NONE if seq is None else seq
        except (KeyError, TypeError, OverflowError):
            chunk.put(row, span, ts, kind, element, experiment_id, flow_id, seq, keys,
                      attrs.values())
        else:
            chunk.site[row] = site
            chunk.values += attrs.values()
            chunk.offsets[row + 1] = chunk.offsets[row] + width
        if self._live is None:  # unbounded: nothing is evicted, so only mark
            if experiment_id is not None and seq is not None and kind in ANOMALY_KINDS:
                self._anomalous.add((experiment_id, flow_id or 0, seq))
            return
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
        if span + 1 - self._head - self._ring_pinned > self.capacity:
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

    def _held(self, chunk: _Columns, row: int) -> tuple[bool, tuple | None]:
        """Whether a ring span is pinned, and its identity."""
        _id, _ts, _kind, element, exp, flow, seq, _keys, _values = chunk.row(row)
        identity = None if exp is None or seq is None else (exp, flow or 0, seq)
        return identity in self._anomalous or element in self._pinned_elements, identity

    def _left_ring(self, chunk: _Columns, row: int) -> bool:
        """Settle the counts for a span taken out of the ring; True when
        it was pinned (so it must be kept, not dropped)."""
        held, identity = self._held(chunk, row)
        if held:
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
            self._pinned.append(TraceEvent._of(chunk.row(row)))

    def pin_element(self, element: str) -> None:
        """Pin every retained and future span of one element.

        The SLO watchdog's anomaly identity is the violating metric's
        labels, not a packet — pinning by element keeps the breached
        component's whole timeline out of ring eviction. Rare (once per
        breached component), so unlike an identity it is pinned by
        walking the ring and settling each of its spans' counts (an
        unbounded tracer keeps no counts to settle).
        """
        if element in self._pinned_elements or self._live is None:
            self._pinned_elements.add(element)
            return
        for chunk, lo, hi in self._segments():
            for row in range(lo, hi):
                if chunk.row(row)[3] == element:
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
        if self._live is not None:
            return len(self._pinned) + self._ring_pinned
        if not self._anomalous and not self._pinned_elements:
            return 0
        return sum(self._held(chunk, row)[0]
                   for chunk, lo, hi in self._segments() for row in range(lo, hi))

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

        rows = []  # only candidates are built: the ints match, or the row escaped
        for chunk, lo, hi in self.events().segments:
            exps, seqs, sites = chunk.exp, chunk.seq, chunk.site
            rows += [chunk.row(row) for row in range(lo, hi)
                     if seqs[row] == seq and exps[row] == experiment_id or not sites[row]]
        return select_timeline(map(TraceEvent._of, rows), experiment_id, flow_id, seq)
