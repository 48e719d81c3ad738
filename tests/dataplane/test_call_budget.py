"""Deterministic host-cost budget for the Fig. 4 forward path.

``layerbench`` measures what a message costs in host time; that is
noisy and runs outside tier-1. Python *call counts* for a seeded run
repeat exactly, so this pins the two that the per-packet bookkeeping
work bought — a change that re-adds a per-hop header walk fails here,
not weeks later in a benchmark. The case is the 800-message
"fabric-like (10 ms WAN)" row of ``BENCH_fig4_pilot.json``, the same
one ``layerbench`` warms up on.
"""

import cProfile
import pstats

from repro.dataplane import PilotConfig, PilotTestbed
from repro.netsim import Simulator
from repro.netsim.units import MILLISECOND

MESSAGES = 800

#: Python + builtin calls per delivered message (974 before packet
#: sizes, header lookups and validation became O(1); ~610 after).
CALLS_PER_MESSAGE_BUDGET = 700

#: ``Packet.size_bytes`` reads per link traversal: MTU check, queue
#: admission, serialization, delivery (7 before; one read per function).
SIZE_READS_PER_HOP_BUDGET = 5


def test_forward_path_stays_inside_its_call_budget():
    pilot = PilotTestbed(
        sim=Simulator(seed=31), config=PilotConfig(wan_delay_ns=10 * MILLISECOND)
    )
    pilot.send_stream(MESSAGES, payload_size=8000, interval_ns=2_000)
    profiler = cProfile.Profile()
    profiler.enable()
    report = pilot.run()
    profiler.disable()
    assert report.complete and report.delivered == MESSAGES

    stats = pstats.Stats(profiler)
    calls_per_message = stats.total_calls / MESSAGES
    assert calls_per_message <= CALLS_PER_MESSAGE_BUDGET, calls_per_message

    size_reads = sum(
        ncalls
        for (filename, _line, name), (_cc, ncalls, *_rest) in stats.stats.items()
        if name == "size_bytes" and filename.endswith("netsim/packet.py")
    )
    hops = sum(link.stats.delivered for link in pilot.topology.links)
    assert hops == 6 * MESSAGES
    assert 0 < size_reads <= SIZE_READS_PER_HOP_BUDGET * hops, size_reads / hops
