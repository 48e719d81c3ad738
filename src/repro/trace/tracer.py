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

Flight recorder: with ``capacity=N`` the tracer keeps a bounded ring of
the most recent spans *plus* every span belonging to an anomalous
packet (one that aged, was lost on a link, was retransmitted, missed a
deadline, or was given up on). The moment an identity turns anomalous
its spans already in the ring are pinned where they lie — they stop
counting against ``capacity`` and eviction steps over them — and every
later span for it bypasses the ring entirely, so a post-mortem always
has the complete story for the packets that went wrong, at a memory
cost bounded by N plus the (rare) anomalies. Pinning an identity is a
set-add and a counter move, never a walk of the ring: what a run keeps
costs O(1) to keep. ``capacity=None`` retains everything.

Timestamps come from the simulator clock at emit time, so traces from
identical seeded runs are byte-identical when exported (pinned by a
golden digest, like the PR 4 wire-trace pins).
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter
from typing import TYPE_CHECKING

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


#: Attr-key tuples, interned: the spans of one call site (about a
#: dozen shapes exist) share one, so a span pays for its values only.
_SHAPES: dict[tuple, tuple] = {}


class TraceEvent:
    """One recorded span/event.

    ``experiment_id``/``flow_id``/``seq`` are the trace identity; any of
    them may be ``None`` for events outside a packet's sequenced life
    (mode-0 traffic before sequence assignment, fault actions, engine
    housekeeping). ``attrs`` holds small JSON-safe extras (ints/strs),
    kept as the shape's key tuple plus a value tuple: a dict per span
    was the heaviest thing a traced run retained.
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
            try:
                self.attr_keys = _SHAPES[keys]
            except KeyError:
                self.attr_keys = _SHAPES[keys] = keys
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
        #: Spans in emission order: the unpinned ones, which ``capacity``
        #: bounds, and spans pinned in place (their identity turned
        #: anomalous after they were recorded) on their way to the head.
        self._ring: deque[TraceEvent] = deque()
        #: How many spans in the ring are pinned in place.
        self._ring_pinned = 0
        #: identity → how many unpinned spans of it the ring holds.
        self._live: dict[tuple[int, int, int], int] = {}
        #: Pinned spans outside the ring — recorded after their identity
        #: or element was pinned, or moved here from the ring head;
        #: kept unsorted, merged by id on read.
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
    ) -> TraceEvent:
        """Record one event, timestamped off the engine clock."""
        event = TraceEvent(
            self.events_emitted, self.sim.now, kind, element,
            experiment_id, flow_id, seq, attrs,
        )
        self.events_emitted += 1
        if experiment_id is None or seq is None:
            identity = None
        else:
            identity = (experiment_id, flow_id or 0, seq)  # event.identity
            if identity in self._anomalous:
                self._pinned.append(event)
                return event
            if kind in ANOMALY_KINDS:
                self._mark_anomalous(identity)
                self._pinned.append(event)
                return event
        if element in self._pinned_elements:
            self._pinned.append(event)
            return event
        self._ring.append(event)
        if identity is not None:
            live = self._live
            live[identity] = live.get(identity, 0) + 1
        capacity = self.capacity
        if capacity is not None and len(self._ring) - self._ring_pinned > capacity:
            self._evict()
        return event

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

    def _left_ring(self, event: TraceEvent) -> bool:
        """Settle the counts for a span taken out of the ring; True when
        it was pinned in place (so it must be kept, not dropped)."""
        identity = event.identity
        if identity is None:
            return False
        if identity in self._anomalous:
            self._ring_pinned -= 1
            return True
        live = self._live
        count = live[identity] - 1
        if count:
            live[identity] = count
        else:
            del live[identity]
        return False

    def _evict(self) -> None:
        """Drop the oldest unpinned span. Pinned spans met at the ring
        head on the way migrate to ``_pinned`` — each span is popped
        once, so eviction stays O(1) amortised."""
        ring = self._ring
        while True:
            event = ring.popleft()
            if not self._left_ring(event):
                self.events_evicted += 1
                return
            self._pinned.append(event)

    def pin_element(self, element: str) -> None:
        """Pin every retained and future span of one element.

        The SLO watchdog's anomaly identity is the violating metric's
        labels, not a packet — pinning by element keeps the breached
        component's whole timeline out of ring eviction. Rare (once per
        breached component), so unlike an identity it is pinned by
        walking the ring and pulling its spans out.
        """
        if element in self._pinned_elements:
            return
        self._pinned_elements.add(element)
        if not self._ring:
            return
        keep: deque[TraceEvent] = deque()
        for event in self._ring:
            if event.element == element:
                self._left_ring(event)
                self._pinned.append(event)
            else:
                keep.append(event)
        self._ring = keep

    # -- reading -------------------------------------------------------------

    def events(self) -> list[TraceEvent]:
        """All retained events (ring + pinned) in emission order."""
        return sorted([*self._ring, *self._pinned], key=attrgetter("id"))

    @property
    def events_retained(self) -> int:
        return len(self._ring) + len(self._pinned)

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
        identity = (experiment_id, flow_id or 0, seq)
        return sorted(
            (e for e in self.events() if e.identity == identity),
            key=lambda e: (e.ts_ns, e.id),
        )
