"""Seeded-random strategies for the conformance property suite.

A deliberately tiny, dependency-free stand-in for a property-testing
library: every test iterates :func:`cases`, which derives one
:class:`Gen` (a wrapped ``random.Random``) per case from the global
suite seed and the case index. Failures therefore reproduce exactly —
rerun the test and case N draws the same values — and the suite never
depends on anything outside the standard library.

Strategies here generate the domain objects the conformance properties
quantify over: arbitrary *valid* MMT headers (every feature combination
with in-range field values), mode-transition sequences, and interleaved
multi-flow packet schedules.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core import AckScheme, Feature, MmtHeader, MsgType

#: Cases per property. ~200 gives good combination coverage while the
#: whole suite stays in single-digit seconds.
DEFAULT_CASES = 200

#: Global suite seed; change it and every property explores new ground
#: (deterministically).
SUITE_SEED = 0xE1EFA27


class Gen:
    """One case's value source: a seeded ``random.Random`` with draws
    named for what they generate."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._rng = random.Random(seed)

    def integer(self, low: int, high: int) -> int:
        """Inclusive on both ends, like ``random.randint``."""
        return self._rng.randint(low, high)

    def boolean(self, probability: float = 0.5) -> bool:
        return self._rng.random() < probability

    def choice(self, options):
        return self._rng.choice(list(options))

    def shuffled(self, items) -> list:
        out = list(items)
        self._rng.shuffle(out)
        return out

    def ipv4(self) -> str:
        return ".".join(str(self.integer(0, 255)) for _ in range(4))


def cases(count: int = DEFAULT_CASES, seed: int = SUITE_SEED):
    """Yield ``(index, Gen)`` pairs, one per case, deterministic in
    ``(seed, index)`` — the knuthian multiplier decorrelates adjacent
    case streams."""
    for index in range(count):
        yield index, Gen(seed + index * 2_654_435_761)


# -- headers -------------------------------------------------------------------


def arbitrary_header(gen: Gen) -> MmtHeader:
    """Any valid header: random feature combination, in-range values.

    Mirrors the field domains of :meth:`MmtHeader.validate` exactly, so
    every generated header must round-trip the codec byte-for-byte.
    """
    features = Feature(gen.integer(0, sum(Feature)))
    header = MmtHeader(
        config_id=gen.integer(0, 255),
        features=features,
        msg_type=gen.choice(MsgType),
        ack_scheme=gen.choice(AckScheme),
        experiment_id=gen.integer(0, 2**32 - 1),
    )
    if features & Feature.SEQUENCED:
        header.seq = gen.integer(0, 2**32 - 1)
    if features & Feature.RETRANSMISSION:
        header.buffer_addr = gen.ipv4()
    if features & Feature.TIMELINESS:
        header.deadline_ns = gen.integer(0, 2**64 - 1)
        header.notify_addr = gen.ipv4()
    if features & Feature.AGE_TRACKING:
        header.age_ns = gen.integer(0, 2**64 - 1)
        header.age_budget_ns = gen.integer(0, 2**64 - 1)
        header.aged = gen.boolean()
    if features & Feature.PACING:
        header.pace_rate_mbps = gen.integer(0, 2**32 - 1)
    if features & Feature.BACKPRESSURE:
        header.source_addr = gen.ipv4()
    if features & Feature.DUPLICATION:
        header.dup_group = gen.integer(0, 2**16 - 1)
        header.dup_copies = gen.integer(0, 255)
    if features & Feature.FLOW_ID:
        header.flow_id = gen.integer(0, 2**16 - 1)
    return header


# -- multi-flow schedules ------------------------------------------------------


@dataclass(frozen=True)
class ScheduleEntry:
    """One packet of an interleaved multi-flow schedule."""

    flow_id: int
    seq: int
    payload_size: int


def multiflow_schedule(
    gen: Gen, max_flows: int = 4, max_messages: int = 12
) -> list[ScheduleEntry]:
    """A random interleaving of several flows' sequenced streams.

    Every flow emits seqs ``0..n_f-1``; the interleaving across flows is
    arbitrary but each flow's own entries stay in seq order (senders
    emit in order — the *network* may reorder, the schedule may not).
    """
    flows = gen.integer(2, max_flows)
    per_flow = {f: gen.integer(1, max_messages) for f in range(flows)}
    tokens = [f for f, n in per_flow.items() for _ in range(n)]
    tokens = gen.shuffled(tokens)
    next_seq = dict.fromkeys(per_flow, 0)
    schedule = []
    for flow_id in tokens:
        schedule.append(
            ScheduleEntry(
                flow_id=flow_id,
                seq=next_seq[flow_id],
                payload_size=gen.integer(64, 1400),
            )
        )
        next_seq[flow_id] += 1
    return schedule
