"""Queue disciplines: admission, ordering, AQM behaviours."""

import random

import pytest

from repro.core import Feature, MmtHeader
from repro.netsim import (
    DeadlineAwareQueue,
    DropTailQueue,
    Packet,
    PriorityQueue,
    RedQueue,
)
from repro.netsim.queues import drain


def packet(size=1000, **meta):
    return Packet(payload_size=size, meta=meta)


class TestDropTail:
    def test_fifo_order(self):
        q = DropTailQueue(10_000)
        first, second = packet(), packet()
        q.enqueue(first)
        q.enqueue(second)
        assert q.dequeue() is first
        assert q.dequeue() is second
        assert q.dequeue() is None

    def test_byte_limit_drops(self):
        q = DropTailQueue(2500)
        assert q.enqueue(packet(1000))
        assert q.enqueue(packet(1000))
        assert not q.enqueue(packet(1000))
        assert q.dropped == 1
        assert len(q) == 2

    def test_occupancy_tracks_bytes(self):
        q = DropTailQueue(2000)
        q.enqueue(packet(500))
        assert q.occupancy == pytest.approx(0.25)
        q.dequeue()
        assert q.occupancy == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            DropTailQueue(0)


class TestPriority:
    def test_high_band_served_first(self):
        q = PriorityQueue(100_000, bands=2, classifier=lambda p: p.meta.get("band", 1))
        low = packet(band=1)
        high = packet(band=0)
        q.enqueue(low)
        q.enqueue(high)
        assert q.dequeue() is high
        assert q.dequeue() is low

    def test_unclassified_goes_lowest(self):
        q = PriorityQueue(100_000, bands=3)
        p = packet()
        q.enqueue(p)
        assert q._queues[2][0][0] is p  # entries are (packet, charged bytes)

    def test_band_clamping(self):
        q = PriorityQueue(100_000, bands=2, classifier=lambda p: 99)
        q.enqueue(packet())
        assert len(q) == 1

    def test_needs_a_band(self):
        with pytest.raises(ValueError):
            PriorityQueue(1000, bands=0)


class TestRed:
    def test_no_early_drop_when_quiet(self):
        q = RedQueue(100_000, rng=random.Random(1))
        for _ in range(10):
            assert q.enqueue(packet(100))
        assert q.early_drops == 0

    def test_early_drops_under_sustained_load(self):
        q = RedQueue(100_000, min_threshold=0.01, max_threshold=0.5,
                     max_drop_probability=1.0, ewma_weight=0.5, rng=random.Random(1))
        dropped = 0
        for _ in range(200):
            if not q.enqueue(packet(5000)):
                dropped += 1
            if len(q) > 3:
                q.dequeue()
        assert q.early_drops > 0
        assert dropped >= q.early_drops

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            RedQueue(1000, min_threshold=0.9, max_threshold=0.5)


class TestDeadlineAware:
    def make(self, now, capacity=100_000, drop_late=True):
        return DeadlineAwareQueue(
            capacity,
            deadline_of=lambda p: p.meta.get("deadline"),
            now=now,
            drop_late=drop_late,
        )

    def test_edf_ordering(self):
        q = self.make(now=lambda: 0)
        late = packet(deadline=300)
        soon = packet(deadline=100)
        mid = packet(deadline=200)
        for p in (late, soon, mid):
            q.enqueue(p)
        assert [p.meta["deadline"] for p in drain(q)] == [100, 200, 300]

    def test_no_deadline_served_after_deadlines(self):
        q = self.make(now=lambda: 0)
        best_effort = packet()
        urgent = packet(deadline=10)
        q.enqueue(best_effort)
        q.enqueue(urgent)
        assert q.dequeue() is urgent
        assert q.dequeue() is best_effort

    def test_late_packet_shed_at_enqueue(self):
        q = self.make(now=lambda: 1000)
        assert not q.enqueue(packet(deadline=500))
        assert q.late_drops == 1

    def test_late_packet_shed_at_dequeue(self):
        clock = {"t": 0}
        q = self.make(now=lambda: clock["t"])
        q.enqueue(packet(deadline=100))
        q.enqueue(packet(deadline=10_000))
        clock["t"] = 5000  # first packet is now late
        out = q.dequeue()
        assert out.meta["deadline"] == 10_000
        assert q.late_drops == 1
        assert q.bytes_queued == 0

    def test_drop_late_disabled_keeps_late(self):
        q = self.make(now=lambda: 1000, drop_late=False)
        assert q.enqueue(packet(deadline=500))
        assert q.dequeue() is not None

    def test_urgent_arrival_pushes_out_best_effort(self):
        q = self.make(now=lambda: 0, capacity=2500)
        assert q.enqueue(packet(1000, deadline=5))
        assert q.enqueue(packet(1000))  # best effort
        # A full queue admits the urgent packet by evicting best effort.
        assert q.enqueue(packet(1000, deadline=1))
        assert q.pushouts == 1
        assert q.dropped == 1
        assert q.bytes_queued == 2000
        assert [p.meta.get("deadline") for p in drain(q)] == [1, 5]

    def test_urgent_arrival_pushes_out_laxest_deadline(self):
        q = self.make(now=lambda: 0, capacity=2500)
        assert q.enqueue(packet(1000, deadline=5))
        assert q.enqueue(packet(1000, deadline=900))
        assert q.enqueue(packet(1000, deadline=1))
        assert q.pushouts == 1
        assert [p.meta.get("deadline") for p in drain(q)] == [1, 5]

    def test_laxest_arrival_is_tail_dropped(self):
        q = self.make(now=lambda: 0, capacity=2500)
        assert q.enqueue(packet(1000, deadline=5))
        assert q.enqueue(packet(1000, deadline=10))
        # The arrival itself is the laxest packet: no push-out happens.
        assert not q.enqueue(packet(1000, deadline=999))
        assert q.pushouts == 0
        assert q.dropped == 1

    def test_best_effort_never_pushes_out(self):
        q = self.make(now=lambda: 0, capacity=2500)
        assert q.enqueue(packet(1000, deadline=5))
        assert q.enqueue(packet(1500, deadline=10))
        assert not q.enqueue(packet(1000))  # best effort cannot evict
        assert q.pushouts == 0


# -- byte conservation -----------------------------------------------------------
# An on-path rewrite can resize a packet while it waits (a mode
# transition flips MmtHeader.features); every discipline must give back
# exactly the bytes it charged at admission.

RESIZE_DISCIPLINES = {
    "drop-tail": lambda: DropTailQueue(100_000),
    "priority": lambda: PriorityQueue(100_000, bands=2),
    "red": lambda: RedQueue(100_000, rng=random.Random(1)),
    "deadline (edf)": lambda: DeadlineAwareQueue(
        100_000, deadline_of=lambda p: 50, now=lambda: 0
    ),
    "deadline (best effort)": lambda: DeadlineAwareQueue(
        100_000, deadline_of=lambda p: None, now=lambda: 0
    ),
}


@pytest.mark.parametrize("discipline", RESIZE_DISCIPLINES)
def test_resize_while_queued_releases_what_was_admitted(discipline):
    q = RESIZE_DISCIPLINES[discipline]()
    header = MmtHeader(experiment_id=1)
    resized = Packet(headers=[header], payload_size=1000)
    assert q.enqueue(resized) and q.enqueue(packet(500))
    assert q.bytes_queued == q.peak_bytes == 1008 + 500
    header.features = Feature.SEQUENCED | Feature.AGE_TRACKING  # +21 bytes
    assert resized.size_bytes == 1029
    assert sorted(p.payload_size for p in drain(q)) == [500, 1000]
    assert q.bytes_queued == 0
    assert q.peak_bytes == 1008 + 500


def test_resize_while_queued_survives_deadline_push_out():
    q = DeadlineAwareQueue(
        2100, deadline_of=lambda p: p.meta.get("deadline"), now=lambda: 0
    )
    header = MmtHeader(experiment_id=1)
    assert q.enqueue(Packet(headers=[header], payload_size=1000))  # best effort
    assert q.enqueue(packet(1000, deadline=900))
    header.features = Feature.SEQUENCED
    assert q.enqueue(packet(1000, deadline=1))  # evicts the resized packet
    assert q.enqueue(packet(92, deadline=2))  # exactly the bytes it was charged
    assert q.pushouts == 1
    assert q.bytes_queued == 2092
    assert len(list(drain(q))) == 3
    assert q.bytes_queued == 0
