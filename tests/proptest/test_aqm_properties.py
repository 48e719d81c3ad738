"""Property suite for the RED/ECN AQM (the incast grid's marking law).

Three laws the Fig. 2 head-to-head leans on, quantified over random
queue geometries and traffic:

1. the early mark/drop probability is monotone nondecreasing in the
   average queue depth (and bounded by ``max_drop_probability``);
2. under Fixed-K ECN, an ECT packet is CE-marked exactly where the
   same-state, same-draw non-ECT packet would have been dropped — the
   decision sequence is shared, only the verdict differs;
3. a same-seed replay of an arbitrary enqueue/dequeue schedule
   reproduces the mark/drop sequence event for event.
"""

from __future__ import annotations

import functools
import random

from repro.netsim import Ipv4Header, Packet, RedQueue
from repro.netsim.headers import ECN_CE, ECN_ECT0, ECN_ECT1, ECN_NOT_ECT

from .strategies import cases


def ect_packet(size: int, codepoint: int = ECN_ECT0) -> Packet:
    return Packet(headers=[Ipv4Header(src="10.0.0.1", dst="10.0.0.2",
                                      ecn=codepoint)], payload_size=size)


def plain_packet(size: int) -> Packet:
    return Packet(headers=[Ipv4Header(src="10.0.0.1", dst="10.0.0.2",
                                      ecn=ECN_NOT_ECT)], payload_size=size)


class TestMarkProbabilityMonotone:
    def test_monotone_in_average_depth(self):
        for _index, gen in cases():
            min_th = gen.integer(0, 800) / 1000
            max_th = min_th + gen.integer(0, int((1 - min_th) * 1000)) / 1000
            queue = RedQueue(
                100_000,
                min_threshold=min_th,
                max_threshold=min(max_th, 1.0),
                max_drop_probability=gen.integer(1, 1000) / 1000,
            )
            depths = sorted(gen.integer(0, 1000) / 1000 for _ in range(8))
            probs = [queue.mark_probability(depth) for depth in depths]
            for lower, higher in zip(probs, probs[1:]):
                assert lower <= higher
            for prob in probs:
                assert 0.0 <= prob <= queue.max_drop_probability

    def test_step_law_at_fixed_k(self):
        # Fixed-K degenerates to a step: 0 at or below K, max above it.
        for _index, gen in cases():
            k = gen.integer(1, 999) / 1000
            queue = RedQueue(
                100_000,
                min_threshold=k,
                max_threshold=k,
                max_drop_probability=1.0,
            )
            below = gen.integer(0, int(k * 1000)) / 1000
            above = min(1.0, k + gen.integer(1, 1000) / 1000)
            assert queue.mark_probability(below) == 0.0
            assert queue.mark_probability(above) == 1.0


class TestEctMarkVsDropEquivalence:
    def test_same_state_same_draw_same_decision(self):
        """Where the ECT packet is CE-marked, the non-ECT twin drops.

        Both queues are driven to an identical above-K state with the
        same ECT prefill under same-seed RNGs (prefill marks are
        admitted, so the states cannot diverge); then one paired test
        enqueue differs only in the codepoint.
        """
        for index, gen in cases():
            k = gen.integer(100, 600) / 1000
            probability = gen.integer(1, 999) / 1000  # < 1: the draw matters
            seed = 0xA0 + index  # per-case RNG seed, shared by both queues
            queues = [
                RedQueue(
                    100_000,
                    min_threshold=k,
                    max_threshold=k,
                    max_drop_probability=probability,
                    ewma_weight=1.0,
                    stream=functools.partial(random.Random, seed),
                    ecn=True,
                )
                for _ in range(2)
            ]
            # Identical ECT prefill past K (CE marks are admitted, so
            # both queues consume identical draws and hold identical bytes).
            size = gen.integer(500, 2000)
            target = int(100_000 * k) + size * gen.integer(1, 4)
            fills = 0
            while fills * size < target:
                for queue in queues:
                    assert queue.enqueue(ect_packet(size))
                fills += 1
            assert queues[0].ce_marked == queues[1].ce_marked
            marks_before = queues[0].ce_marked
            drops_before = queues[1].early_drops

            ect, plain = ect_packet(size), plain_packet(size)
            admitted_ect = queues[0].enqueue(ect)
            admitted_plain = queues[1].enqueue(plain)
            marked = queues[0].ce_marked - marks_before
            dropped = queues[1].early_drops - drops_before
            # One shared decision: marked iff the twin was dropped.
            assert marked == dropped
            if marked:
                assert admitted_ect and not admitted_plain
                assert ect.find(Ipv4Header).ecn == ECN_CE
            else:
                assert admitted_ect == admitted_plain
                assert ect.find(Ipv4Header).ecn == ECN_ECT0


class TestSameSeedReplay:
    def _run(self, schedule, seed):
        queue = RedQueue(
            50_000,
            min_threshold=0.1,
            max_threshold=0.6,
            max_drop_probability=0.5,
            ewma_weight=0.8,
            stream=functools.partial(random.Random, seed),
            ecn=True,
        )
        events = []
        for op, size, codepoint in schedule:
            if op == "deq":
                out = queue.dequeue()
                events.append(("deq", out.payload_size if out else None))
            else:
                packet = Packet(
                    headers=[Ipv4Header(src="10.0.0.1", dst="10.0.0.2",
                                        ecn=codepoint)],
                    payload_size=size,
                )
                admitted = queue.enqueue(packet)
                events.append(
                    ("enq", admitted, packet.find(Ipv4Header).ecn,
                     queue.ce_marked, queue.early_drops, queue.dropped)
                )
        return events

    def test_identical_mark_drop_sequences(self):
        for index, gen in cases():
            schedule = []
            for _ in range(gen.integer(20, 60)):
                if gen.boolean(0.3):
                    schedule.append(("deq", 0, 0))
                else:
                    codepoint = gen.choice(
                        (ECN_NOT_ECT, ECN_ECT0, ECN_ECT1, ECN_NOT_ECT)
                    )
                    schedule.append(("enq", gen.integer(200, 4000), codepoint))
            seed = 0xBEEF + index
            assert self._run(schedule, seed) == self._run(schedule, seed)
