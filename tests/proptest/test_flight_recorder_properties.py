"""Property suite for the flight recorder's retention (``repro.trace``).

The tracer pins an anomalous identity *in place*: a set-add and a
counter move, with pinned spans stepping out of the ring only when they
reach its head. The recorder it replaced pulled them out by copying the
whole ring on every anomaly — slow, but obviously right, so it is kept
here as the reference (the way ``tests/core/test_header_fastpath.py``
keeps the reference codec). Both are driven with the same random
sequence of ``emit`` and ``pin_element`` calls and must agree after
every step on everything a reader can see: the retained span ids in
order, the retained / pinned / evicted counts, the anomalous identities
and every identity's timeline.
"""

from __future__ import annotations

from collections import Counter, deque

import pytest

from repro.trace import TraceEvent, Tracer
from repro.trace.tracer import ANOMALY_KINDS

from .strategies import Gen, cases

CAPACITIES = (None, 1, 8, 64)

#: Few identities and elements, so spans of one identity interleave
#: with the others' and repeat across the ring's whole length.
IDENTITIES = [(experiment, flow, seq)
              for experiment in (1, 2) for flow in (0, 3) for seq in (0, 1, 2)]
ELEMENTS = ("sensor", "u280", "tofino2", "dtn2")
NORMAL_KINDS = ("packet.send", "element.ingress", "element.egress", "queue.wait")
ANOMALOUS_KINDS = ("link.drop", "retx.send", "nak.send")
assert set(ANOMALOUS_KINDS) <= ANOMALY_KINDS and not set(NORMAL_KINDS) & ANOMALY_KINDS


class Clock:
    """The one thing a tracer reads off the simulator."""

    def __init__(self) -> None:
        self.now = 0


class ScanRecorder:
    """The scan-based flight recorder, as it stood before pin-in-place:
    the ring holds unpinned spans only, and pinning copies the ring."""

    def __init__(self, sim: Clock, capacity: int | None) -> None:
        self.sim = sim
        self.capacity = capacity
        self.events_emitted = 0
        self.events_evicted = 0
        self._ring: deque[TraceEvent] = deque()
        self._pinned: list[TraceEvent] = []
        self._anomalous: set = set()
        self._pinned_elements: set = set()

    def emit(self, kind, element, experiment_id=None, flow_id=None, seq=None, **attrs):
        event = TraceEvent(self.events_emitted, self.sim.now, kind, element,
                           experiment_id, flow_id, seq, attrs or None)
        self.events_emitted += 1
        identity = event.identity
        if identity is not None and identity in self._anomalous:
            self._pinned.append(event)
        elif identity is not None and kind in ANOMALY_KINDS:
            self._anomalous.add(identity)
            self._pull_out(lambda e: e.identity == identity)
            self._pinned.append(event)
        elif element in self._pinned_elements:
            self._pinned.append(event)
        else:
            self._ring.append(event)
            if self.capacity is not None and len(self._ring) > self.capacity:
                self._ring.popleft()
                self.events_evicted += 1

    def pin_element(self, element):
        if element not in self._pinned_elements:
            self._pinned_elements.add(element)
            self._pull_out(lambda e: e.element == element)

    def _pull_out(self, pinned) -> None:
        keep: deque[TraceEvent] = deque()
        for event in self._ring:
            (self._pinned if pinned(event) else keep).append(event)
        self._ring = keep

    def events(self):
        return sorted([*self._ring, *self._pinned], key=lambda e: e.id)

    @property
    def events_retained(self):
        return len(self._ring) + len(self._pinned)

    @property
    def events_pinned(self):
        return len(self._pinned)

    def anomalous_identities(self):
        return set(self._anomalous)

    def timeline(self, experiment_id, flow_id, seq):
        identity = (experiment_id, flow_id or 0, seq)
        return sorted((e for e in self.events() if e.identity == identity),
                      key=lambda e: (e.ts_ns, e.id))


def ids(events) -> list[int]:
    return [event.id for event in events]


class Pair:
    """A tracer and its reference, fed the same calls and compared after
    each one."""

    def __init__(self, capacity: int | None) -> None:
        self.clock = Clock()
        self.tracer = Tracer(self.clock, capacity=capacity)
        self.reference = ScanRecorder(self.clock, capacity)

    def emit(self, kind, element, identity=(None, None, None)) -> None:
        experiment, flow, seq = identity
        self.tracer.emit(kind, element, experiment, flow, seq, note=kind)
        self.reference.emit(kind, element, experiment, flow, seq, note=kind)
        self.check()

    def pin_element(self, element) -> None:
        self.tracer.pin_element(element)
        self.reference.pin_element(element)
        self.check()

    def check(self) -> None:
        tracer, reference = self.tracer, self.reference
        assert ids(tracer.events()) == ids(reference.events())
        assert tracer.events_retained == reference.events_retained
        assert tracer.events_pinned == reference.events_pinned
        assert tracer.events_evicted == reference.events_evicted
        assert tracer.events_emitted == reference.events_emitted
        assert tracer.anomalous_identities() == reference.anomalous_identities()
        for identity in IDENTITIES:
            assert ids(tracer.timeline(*identity)) == ids(reference.timeline(*identity))
        # The books the new design keeps must balance too. An unbounded
        # tracer evicts nothing, so it keeps none: it counts pins on read.
        if tracer.capacity is None:
            assert tracer._live is None and tracer._ring_pinned == 0 and not tracer._pinned
            return
        ring = list(tracer.events())[len(tracer._pinned):]
        pinned = [e.identity in tracer._anomalous or e.element in tracer._pinned_elements
                  for e in ring]
        assert tracer._ring_pinned == sum(pinned)
        assert tracer._live == Counter(
            e.identity for e, held in zip(ring, pinned) if e.identity is not None and not held
        )


def random_step(pair: Pair, gen: Gen) -> None:
    pair.clock.now += gen.integer(0, 3)  # equal timestamps happen inside one engine event
    draw = gen.integer(0, 99)
    element = gen.choice(ELEMENTS)
    if draw < 3:
        pair.pin_element(element)
    elif draw < 15:
        # Outside a packet's sequenced life: no experiment, or no seq yet.
        pair.emit(gen.choice(NORMAL_KINDS + ANOMALOUS_KINDS), element,
                  gen.choice([(None, None, None), (1, 0, None), (None, 0, 5)]))
    elif draw < 25:
        pair.emit(gen.choice(ANOMALOUS_KINDS), element, gen.choice(IDENTITIES))
    else:
        pair.emit(gen.choice(NORMAL_KINDS), element, gen.choice(IDENTITIES))


@pytest.mark.parametrize("capacity", CAPACITIES)
def test_pin_in_place_retains_exactly_what_the_scan_did(capacity):
    for _index, gen in cases(40):
        pair = Pair(capacity)
        for _ in range(gen.integer(20, 120)):
            random_step(pair, gen)


@pytest.mark.parametrize("capacity", (1, 2, 4))
def test_identity_turns_anomalous_with_its_spans_at_the_ring_head(capacity):
    a, b, c = IDENTITIES[:3]
    pair = Pair(capacity)
    for identity in (a, a, b, b):
        pair.emit("packet.send", "sensor", identity)
    head = pair.tracer.events()[0].identity
    pair.emit("link.drop", "wan", head)  # pinned where they lie, at the head
    assert pair.tracer._ring_pinned > 0 and pair.tracer.events()[0].identity == head
    # Eviction must step over the pinned head, keep it, and take the
    # oldest *unpinned* span instead — for as long as the ring turns.
    for _ in range(3 * capacity + 2):
        pair.emit("element.ingress", "u280", c)
    assert pair.tracer._ring_pinned == 0  # all migrated out of the ring by now
    assert pair.tracer.events_pinned == pair.reference.events_pinned > 1


@pytest.mark.parametrize("capacity", CAPACITIES)
def test_pin_element_over_spans_of_an_already_anomalous_identity(capacity):
    a, b = IDENTITIES[:2]
    pair = Pair(capacity)
    pair.emit("packet.send", "sensor", b)
    pair.emit("element.ingress", "u280", a)
    pair.emit("element.egress", "u280", b)
    pair.emit("link.drop", "wan", a)  # a's u280 span (if retained) is pinned in place
    pair.pin_element("u280")  # ... and is now pulled out with b's: counted once
    pair.pin_element("u280")  # idempotent
    pair.emit("element.ingress", "u280", b)  # future spans of the element bypass the ring
    pair.emit("retx.send", "u280", b)  # an identity whose ring spans were partly pulled out
    for _ in range(70):
        pair.emit("packet.send", "sensor", IDENTITIES[2])
