"""Retransmission buffers and the buffer directory."""

import random
import time

import pytest

from repro.core import (
    BufferDirectory,
    Feature,
    MmtHeader,
    NakForwardGuard,
    NakPayload,
    RetransmitBuffer,
    SeqRange,
)
from repro.trace import Tracer


def put(buf, experiment_id, seq, size=1000, **meta):
    """Cache a header-less message of ``size`` payload bytes."""
    buf.store(experiment_id, seq, None, size, meta=meta)


class Clock:
    now = 0


def coalesced(nak):
    return NakPayload.from_ranges([(item.start, item.end) for item in nak.ranges]).ranges


def serve_seq_by_seq(buf, experiment_id, nak, flow_id=0):
    """The per-seq NAK walk ``serve_nak`` replaced: the reference. It
    walks the NAK's ranges coalesced, so a seq is served once a NAK."""
    recovered, unmet = [], []
    for item in coalesced(nak):
        for seq in item:
            packet = buf.fetch(experiment_id, seq, flow_id)
            if packet is None:
                unmet.append(seq)
            else:
                recovered.append(packet)
    return recovered, NakPayload.from_sequence_numbers(unmet).ranges


class TestBuffer:
    def test_store_and_fetch_returns_copy(self):
        buf = RetransmitBuffer(10_000, address="10.0.0.1")
        header = MmtHeader(features=Feature.SEQUENCED, seq=0, experiment_id=1)
        meta = {"flow": "x"}
        buf.store(1, 0, header, 100, meta=meta)
        header.seq, meta["flow"] = 5, "y"  # later rewrites do not reach the entry
        fetched = buf.fetch(1, 0)
        assert fetched.headers == [MmtHeader(features=Feature.SEQUENCED, seq=0, experiment_id=1)]
        assert fetched.meta == {"flow": "x"} and fetched.size_bytes == header.size_bytes + 100
        fetched.meta["retx"] = True
        fetched.headers[0].seq = 9
        again = buf.fetch(1, 0)
        assert again.meta == {"flow": "x"} and again.headers[0].seq == 0
        assert buf.bytes_used == header.size_bytes + 100  # header plus payload by default

    def test_charge_is_the_size_given(self):
        """An element mirrors a whole frame and charges its L2/L3 bytes too."""
        buf = RetransmitBuffer(10_000, address="10.0.0.1")
        buf.store(1, 0, MmtHeader(), 100, size_bytes=180)
        buf.store(1, 1, MmtHeader(), 100, flow_id=2, size_bytes=170)
        assert buf.bytes_used == 350
        assert buf.bytes_by_flow() == {(1, 0): 180, (1, 2): 170}

    def test_miss_counted(self):
        buf = RetransmitBuffer(10_000, address="10.0.0.1")
        assert buf.fetch(1, 99) is None
        assert buf.stats.misses == 1

    def test_duplicate_store_ignored(self):
        buf = RetransmitBuffer(10_000, address="10.0.0.1")
        put(buf, 1, 0)
        put(buf, 1, 0)
        assert len(buf) == 1
        assert buf.stats.duplicates_ignored == 1

    def test_fifo_eviction_under_pressure(self):
        buf = RetransmitBuffer(2_500, address="10.0.0.1")
        for seq in range(4):
            put(buf, 1, seq, 1000)
        assert len(buf) == 2
        assert not buf.holds(1, 0)
        assert not buf.holds(1, 1)
        assert buf.holds(1, 2) and buf.holds(1, 3)
        assert buf.stats.evicted == 2

    def test_keying_by_experiment(self):
        buf = RetransmitBuffer(10_000, address="10.0.0.1")
        put(buf, 1, 0, 100)
        put(buf, 2, 0, 200)
        assert buf.fetch(1, 0).payload_size == 100
        assert buf.fetch(2, 0).payload_size == 200

    def test_serve_nak_splits_hits_and_misses(self):
        buf = RetransmitBuffer(100_000, address="10.0.0.1")
        for seq in (0, 1, 3):
            put(buf, 7, seq)
        recovered, unmet = buf.serve_nak(7, NakPayload(ranges=[SeqRange(0, 4)]))
        assert len(recovered) == 3
        assert unmet == [SeqRange(2, 2), SeqRange(4, 4)]

    def test_full_space_nak_walks_only_what_is_held(self):
        """Regression: 10 bytes of NAK name all 2**32 seqs, and the
        per-seq walk took ~24 min and a 2**32-int list to answer it."""
        buf = RetransmitBuffer(100_000, address="10.0.0.1")
        buf.tracer = Tracer(Clock())
        for seq in range(10):
            put(buf, 7, seq)
        nak = NakPayload.decode(NakPayload([SeqRange(0, 0xFFFFFFFF)]).encode())
        started = time.perf_counter()
        recovered, unmet = buf.serve_nak(7, nak)
        assert time.perf_counter() - started < 1.0
        assert len(recovered) == 10 and buf.stats.hits == 10
        assert unmet == [SeqRange(10, 0xFFFFFFFF)]
        assert buf.stats.misses == 2**32 - 10
        miss = [event for event in buf.tracer.events() if event.kind == "buffer.miss"]
        assert [(event.seq, event.attrs) for event in miss] == [
            (None, {"start": 0, "end": 0xFFFFFFFF, "misses": 2**32 - 10})]

    @pytest.mark.parametrize("ranges", [
        [SeqRange(0, 9)] * 5,  # duplicates
        [SeqRange(0, 5), SeqRange(3, 9)],  # partly overlapping
        [SeqRange(6, 9), SeqRange(2, 4), SeqRange(0, 6)],  # out of order, overlapping
    ], ids=["duplicate", "overlapping", "unordered"])
    def test_overlapping_ranges_resend_each_held_packet_once(self, ranges):
        """Regression: each range was served as it came, so five copies
        of one range resent each of ten held packets five times (and an
        MTU-sized forged NAK of ~1 100 ranges made ~11 000 resends)."""
        buf = RetransmitBuffer(100_000, address="10.0.0.1")
        for seq in range(10):
            put(buf, 7, seq, size=seq + 1)
        recovered, unmet = buf.serve_nak(7, NakPayload.decode(NakPayload(ranges).encode()))
        assert sorted(packet.payload_size for packet in recovered) == list(range(1, 11))
        assert unmet == [] and buf.stats.hits == 10 and buf.stats.misses == 0

    def test_serve_nak_matches_the_seq_by_seq_walk(self):
        """Hits, misses, unmet ranges and the per-seq miss spans of
        narrow ranges are what the per-seq walk gives, for ranges
        narrower and wider than the buffer, overlapping or not."""
        rng = random.Random(5)
        for case in range(300):
            bufs = [RetransmitBuffer(1 << 30, address="10.0.0.1") for _ in range(2)]
            held = rng.sample(range(40), rng.randint(0, 12))
            for buf in bufs:
                buf.tracer = Tracer(Clock())
                for seq in held:
                    put(buf, 7, seq, size=seq + 1)
                buf.store(7, 3, None, 1, flow_id=1)  # another flow's: never answers
            ranges = []
            for _ in range(rng.randint(1, 4)):
                start = rng.randrange(45)
                ranges.append(SeqRange(start, start + rng.randrange(20)))
            nak = NakPayload(ranges)
            (got, got_unmet), (want, want_unmet) = (
                bufs[0].serve_nak(7, nak), serve_seq_by_seq(bufs[1], 7, nak))
            context = f"case {case}: held {sorted(held)}, {ranges}"
            assert [p.payload_size for p in got] == [p.payload_size for p in want], context
            assert got_unmet == want_unmet, context
            assert (bufs[0].stats.hits, bufs[0].stats.misses) == (
                bufs[1].stats.hits, bufs[1].stats.misses), context
            if all(len(r) <= len(bufs[0]) for r in coalesced(nak)):
                spans = [[(e.kind, e.seq) for e in b.tracer.events()] for b in bufs]
                assert spans[0] == spans[1], context

    def test_occupancy(self):
        buf = RetransmitBuffer(2_000, address="10.0.0.1")
        put(buf, 1, 0, 1000)
        assert buf.occupancy == pytest.approx(0.5)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            RetransmitBuffer(0, address="10.0.0.1")


class TestDirectory:
    def test_nearest_upstream_picks_closest_behind(self):
        directory = BufferDirectory()
        directory.register("10.0.0.1", path_position=1)
        directory.register("10.0.0.2", path_position=3)
        hit = directory.nearest_upstream(1, position=4)
        assert hit.address == "10.0.0.2"
        hit = directory.nearest_upstream(1, position=2)
        assert hit.address == "10.0.0.1"

    def test_nothing_behind_returns_none(self):
        directory = BufferDirectory()
        directory.register("10.0.0.2", path_position=5)
        assert directory.nearest_upstream(1, position=2) is None

    def test_experiment_scoping(self):
        directory = BufferDirectory()
        directory.register("10.0.0.1", path_position=1, experiments={42})
        assert directory.nearest_upstream(42, 5) is not None
        assert directory.nearest_upstream(7, 5) is None

    def test_empty_experiments_serves_all(self):
        directory = BufferDirectory()
        registration = directory.register("10.0.0.1", path_position=0)
        assert registration.serves(123)
        assert len(directory) == 1

    def test_tie_break_is_registration_order(self):
        """Two buffers at the same path position: the earliest
        registration wins, deterministically."""
        directory = BufferDirectory()
        directory.register("10.0.0.1", path_position=3)
        directory.register("10.0.0.2", path_position=3)
        assert directory.nearest_upstream(1, position=5).address == "10.0.0.1"

    def test_dead_buffers_skipped(self):
        directory = BufferDirectory()
        directory.register("10.0.0.1", path_position=1)
        directory.register("10.0.0.2", path_position=3)
        assert directory.mark_down("10.0.0.2") == 1
        assert directory.nearest_upstream(1, position=5).address == "10.0.0.1"
        assert directory.alive_count() == 1
        assert directory.mark_up("10.0.0.2") == 1
        assert directory.nearest_upstream(1, position=5).address == "10.0.0.2"
        assert (directory.marks_down, directory.marks_up) == (1, 1)

    def test_mark_down_unknown_address_is_noop(self):
        directory = BufferDirectory()
        directory.register("10.0.0.1", path_position=1)
        assert directory.mark_down("10.9.9.9") == 0
        assert directory.alive_count() == 1

    def test_failover_prefers_upstream_then_ahead(self):
        directory = BufferDirectory()
        directory.register("10.0.0.1", path_position=2)
        directory.register("10.0.0.2", path_position=3)
        # Normal case: nearest live upstream.
        assert directory.failover_for(1, position=4).address == "10.0.0.2"
        directory.mark_down("10.0.0.2")
        assert directory.failover_for(1, position=4).address == "10.0.0.1"
        # Nothing upstream survives: closest live buffer ahead still
        # works as a NAK target for the receiver.
        assert directory.failover_for(1, position=1).address == "10.0.0.1"
        directory.mark_down("10.0.0.1")
        assert directory.failover_for(1, position=4) is None

    def test_failover_respects_experiment_scoping(self):
        directory = BufferDirectory()
        directory.register("10.0.0.1", path_position=2, experiments={42})
        assert directory.failover_for(42, position=4) is not None
        assert directory.failover_for(7, position=4) is None


class TestFailedBuffer:
    def test_fail_wipes_and_refuses_stores(self):
        buf = RetransmitBuffer(100_000, address="10.0.0.1")
        put(buf, 1, 0)
        buf.fail()
        assert len(buf) == 0 and buf.bytes_used == 0
        put(buf, 1, 1)
        assert len(buf) == 0
        assert buf.stats.rejected_failed == 1
        assert buf.stats.failures == 1
        # Double-fail is idempotent.
        buf.fail()
        assert buf.stats.failures == 1

    def test_restore_comes_back_empty_but_working(self):
        buf = RetransmitBuffer(100_000, address="10.0.0.1")
        put(buf, 1, 0)
        buf.fail()
        buf.restore()
        assert buf.fetch(1, 0) is None  # contents did not survive
        put(buf, 1, 1)
        assert buf.fetch(1, 1) is not None

    def test_nak_racing_eviction_is_unmet_not_crash(self):
        """A NAK arriving for sequences the buffer already evicted must
        resolve to unmet ranges, never an exception."""
        buf = RetransmitBuffer(2_500, address="10.0.0.1")
        for seq in range(4):
            put(buf, 1, seq, 1000)  # seqs 0-1 evicted
        recovered, unmet = buf.serve_nak(1, NakPayload(ranges=[SeqRange(0, 1)]))
        assert recovered == []
        assert unmet == [SeqRange(0, 1)]
        assert buf.stats.misses == 2


class TestNakForwardGuard:
    def test_allows_limit_then_suppresses(self):
        guard = NakForwardGuard(limit=3)
        key = (1, ((5, 9),))
        assert [guard.allow(key) for _ in range(5)] == [True, True, True, False, False]
        assert guard.suppressed == 2

    def test_distinct_keys_independent(self):
        guard = NakForwardGuard(limit=1)
        assert guard.allow((1, ((0, 0),)))
        assert guard.allow((2, ((0, 0),)))
        assert not guard.allow((1, ((0, 0),)))

    def test_flow_scoped_keys_do_not_cross_suppress(self):
        """Regression: forward keys are ``(experiment, flow, ranges)``.

        Before the flow id entered the key, two flows of one experiment
        NAKing the same seq ranges shared a single budget: one flow's
        suppressed fallback loop muted the other's legitimate forward,
        and a noisy flow could spend a quiet flow's entire allowance."""
        guard = NakForwardGuard(limit=2)
        ranges = ((10, 20),)
        flow_a, flow_b = (7, 0, ranges), (7, 1, ranges)
        assert [guard.allow(flow_a) for _ in range(3)] == [True, True, False]
        # Flow B's identical seq ranges still get the full budget.
        assert [guard.allow(flow_b) for _ in range(3)] == [True, True, False]
        assert guard.suppressed == 2

    def test_churn_does_not_reopen_suppressed_keys(self):
        """Regression: the old implementation cleared the whole table at
        1024 entries, which reset every suppressed NAK loop at once.
        The bounded-LRU guard must keep an actively-looping key
        suppressed through arbitrarily many fresh keys."""
        guard = NakForwardGuard(limit=3, capacity=1024)
        loop_key = (99, ((0, 7),))
        for _ in range(3):
            assert guard.allow(loop_key)
        assert not guard.allow(loop_key)
        for i in range(1100):  # would have wiped the old dict twice over
            guard.allow((i, ((i, i),)))
            if i % 100 == 0:
                assert not guard.allow(loop_key)  # the loop is still live
        assert not guard.allow(loop_key)
        assert len(guard) <= 1024

    def test_idle_keys_evicted_at_capacity(self):
        guard = NakForwardGuard(limit=1, capacity=4)
        guard.allow(("idle", 0))
        for i in range(4):
            guard.allow(("fresh", i))
        assert len(guard) == 4
        # The stale key fell out: it gets a fresh allowance.
        assert guard.allow(("idle", 0))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            NakForwardGuard(limit=0)
        with pytest.raises(ValueError):
            NakForwardGuard(capacity=0)
