"""Tracer unit tests: emission, identity, and flight-recorder semantics."""

import pytest

from repro.core.features import Feature
from repro.core.header import MmtHeader
from repro.netsim.headers import EthernetHeader
from repro.netsim.packet import Packet
from repro.trace import ANOMALY_KINDS, TraceEvent, Tracer


class Clock:
    """Minimal stand-in for the engine: just a ``now`` attribute."""

    def __init__(self, now: int = 0) -> None:
        self.now = now


def test_emit_stamps_clock_and_orders_ids():
    clock = Clock()
    tracer = Tracer(clock)
    tracer.emit("element.ingress", "x", 1, 0, 10)
    clock.now = 500
    tracer.emit("element.egress", "x", 1, 0, 10)
    first, second = tracer.events()
    assert (first.ts_ns, second.ts_ns) == (0, 500)
    assert second.id == first.id + 1
    assert tracer.events_emitted == 2


def test_identity_requires_experiment_and_seq():
    event = TraceEvent(0, 0, "k", "x", experiment_id=7, flow_id=None, seq=3)
    assert event.identity == (7, 0, 3)
    assert TraceEvent(0, 0, "k", "x", experiment_id=7).identity is None
    assert TraceEvent(0, 0, "k", "x", seq=3).identity is None


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        Tracer(Clock(), capacity=0)
    with pytest.raises(ValueError):
        Tracer(Clock(), capacity=-5)


def test_ring_evicts_oldest_first():
    tracer = Tracer(Clock(), capacity=3)
    for seq in range(5):
        tracer.emit("element.egress", "x", 1, 0, seq)
    assert tracer.events_evicted == 2
    assert [e.seq for e in tracer.events()] == [2, 3, 4]


def test_anomaly_pins_past_and_future_spans():
    """An anomalous identity's spans survive unlimited ring churn —
    both the spans recorded *before* the anomaly and those after."""
    tracer = Tracer(Clock(), capacity=2)
    tracer.emit("element.egress", "x", 1, 0, 99)  # before the anomaly
    tracer.emit("link.drop", "wan", 1, 0, 99)  # anomaly: pins identity
    for seq in range(50):  # churn the ring hard
        tracer.emit("element.egress", "x", 1, 0, seq)
    tracer.emit("retx.recv", "rx", 1, 0, 99)  # after: bypasses the ring
    kinds = [e.kind for e in tracer.events() if e.seq == 99]
    assert kinds == ["element.egress", "link.drop", "retx.recv"]
    assert tracer.anomalous_identities() == {(1, 0, 99)}
    assert tracer.events_pinned == 3
    # The ring itself still holds only `capacity` non-anomalous spans.
    assert tracer.events_retained == 3 + 2


def test_anomaly_without_identity_stays_in_ring():
    tracer = Tracer(Clock(), capacity=1)
    tracer.emit("link.drop", "wan")  # no identity: nothing to pin
    tracer.emit("element.egress", "x", 1, 0, 0)
    assert tracer.events_pinned == 0
    assert tracer.events_retained == 1  # the drop was evicted


def test_unbounded_tracer_never_evicts():
    tracer = Tracer(Clock())
    for seq in range(1000):
        tracer.emit("element.egress", "x", 1, 0, seq)
    assert tracer.events_evicted == 0
    assert tracer.events_retained == 1000


def test_packet_event_skips_non_mmt_packets():
    tracer = Tracer(Clock())
    tracer.packet_event("port.drop", "x", Packet(eth=EthernetHeader()))
    assert tracer.events_emitted == 0
    mmt = MmtHeader(
        config_id=1,
        features=Feature.SEQUENCED,
        experiment_id=7,
        seq=4,
    )
    tracer.packet_event("port.drop", "x", Packet(mmt=mmt))
    (event,) = tracer.events()
    assert event.identity == (7, 0, 4)
    assert event.attrs["msg"] == "DATA"


def test_queue_wait_emits_only_on_actual_wait():
    clock = Clock()
    tracer = Tracer(clock)
    mmt = MmtHeader(config_id=1, features=Feature.SEQUENCED, experiment_id=7, seq=1)
    waiting = Packet(mmt=mmt)
    instant = Packet(mmt=mmt.copy())
    tracer.note_enqueue(waiting)
    tracer.note_enqueue(instant)
    tracer.queue_wait(instant, "x", "p0")  # zero wait: implicit
    clock.now = 250
    tracer.queue_wait(waiting, "x", "p0")
    tracer.queue_wait(waiting, "x", "p0")  # enqueue note consumed: no-op
    (event,) = tracer.events()
    assert event.kind == "queue.wait"
    assert event.attrs["wait_ns"] == 250
    assert not tracer._enqueued_at


def test_timeline_orders_by_time_then_emission():
    clock = Clock()
    tracer = Tracer(clock)
    tracer.emit("element.ingress", "x", 1, 0, 5)
    tracer.emit("element.egress", "x", 1, 0, 5)  # same ts: emission order
    clock.now = 10
    tracer.emit("packet.deliver", "rx", 1, 0, 5)
    tracer.emit("element.egress", "x", 1, 0, 6)  # other identity
    kinds = [e.kind for e in tracer.timeline(1, 0, 5)]
    assert kinds == ["element.ingress", "element.egress", "packet.deliver"]


def test_anomaly_kind_set_matches_issue_classes():
    """Aged, lost, retransmitted, degraded-recovery — all represented."""
    for kind in ("age.aged", "link.drop", "retx.send", "nak.giveup", "deadline.miss"):
        assert kind in ANOMALY_KINDS
    assert "element.egress" not in ANOMALY_KINDS
