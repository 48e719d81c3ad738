"""Deterministic host-cost budget for the Fig. 4 forward path.

``layerbench`` measures what a message costs in host time; that is
noisy and runs outside tier-1. Python *call counts* for a seeded run
repeat exactly, so this budgets calls into the packet layer
(``netsim/packet.py``, ``netsim/headers.py``) per link hop on the
800-message "fabric-like (10 ms WAN)" row of ``BENCH_fig4_pilot.json``;
``test_layer_counts.py`` pins every layer's calls on the same case.

What a run *retains* is budgeted the same way: spans must cost the same
to keep however many the run has kept already (a recorder that rescans
its ring on every anomaly grows with loss x messages²), and a packet
must be freed by refcount the moment nothing holds it (one that sits in
a reference cycle waits for the cycle collector, whose cost no
per-function profile shows).
"""

import cProfile
import gc
import pstats
import weakref

from repro.core import Feature, MmtHeader
from repro.dataplane import PilotConfig, PilotTestbed
from repro.netsim import EthernetHeader, Packet, Simulator
from repro.netsim.units import MILLISECOND

MESSAGES = 800

#: Calls into the packet layer's files per link traversal. A header or
#: the wire size is a slot read, so what is left is building and copying
#: packets and the two mode rewrites per message, which resize it through
#: ``Packet.rewrite``: 7 200 calls over 4 800 hops (68 813 when a packet
#: was a header stack with a memoized size).
PACKET_CALLS_PER_HOP_BUDGET = 1.5


def calls_inside(stats, *directories):
    """Profiled calls into functions defined under any of ``directories``."""
    return sum(
        ncalls
        for (filename, _line, _name), (_cc, ncalls, *_rest) in stats.stats.items()
        if any(d in filename.replace("\\", "/") for d in directories)
    )


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

    packet_calls = calls_inside(pstats.Stats(profiler), "netsim/packet.py", "netsim/headers.py")
    hops = sum(link.stats.delivered for link in pilot.topology.links)
    assert hops == 6 * MESSAGES
    assert 0 < packet_calls <= PACKET_CALLS_PER_HOP_BUDGET * hops, packet_calls / hops


#: Python calls inside ``repro/trace/`` per emitted span (2.5 at either
#: size: ``emit``, ``TraceEvent.__init__`` and, for most spans,
#: ``packet_event``; 8.6 at 800 messages and 27.5 at 3 200 when every
#: anomaly copied the ring).
TRACE_CALLS_PER_SPAN_BUDGET = 5


def traced_lossy_run(messages):
    """``(calls inside repro/trace/ per span, total calls per message)``
    for the traced Fig. 4 case under 2 % WAN loss."""
    config = PilotConfig(wan_delay_ns=10 * MILLISECOND, wan_loss_rate=0.02, trace=True)
    pilot = PilotTestbed(sim=Simulator(seed=31), config=config)
    pilot.send_stream(messages, payload_size=8000, interval_ns=2_000)
    profiler = cProfile.Profile()
    profiler.enable()
    report = pilot.run()
    profiler.disable()
    assert report.complete and report.delivered == messages
    assert pilot.tracer.anomalous_identities()  # the loss did pin something
    stats = pstats.Stats(profiler)
    trace_calls = calls_inside(stats, "repro/trace/")
    return trace_calls / pilot.tracer.events_emitted, stats.total_calls / messages


def test_keeping_spans_costs_the_same_at_any_run_length():
    short_per_span, short_per_message = traced_lossy_run(MESSAGES)
    long_per_span, long_per_message = traced_lossy_run(4 * MESSAGES)
    assert short_per_span <= TRACE_CALLS_PER_SPAN_BUDGET, short_per_span
    assert long_per_span <= TRACE_CALLS_PER_SPAN_BUDGET, long_per_span
    # Four times the messages, four times the calls: nothing a message
    # costs depends on how many the run has already carried.
    assert abs(long_per_message / short_per_message - 1) <= 0.01, (
        short_per_message, long_per_message)


class WeaklyWatched(Packet):
    """``Packet`` has no ``__weakref__`` slot (8 bytes x millions); the
    test adds one to see an instance die."""

    __slots__ = ("__weakref__",)


def test_a_packet_dies_with_its_last_reference():
    """Nothing a packet owns points back at it, so dropping the last
    reference frees it at once — no cycle collector needed."""
    gc.collect()
    gc.disable()
    try:
        header = MmtHeader(experiment_id=1, features=Feature.SEQUENCED, seq=0)
        packet = WeaklyWatched(eth=EthernetHeader(), mmt=header, payload_size=64)
        assert packet.size_bytes == 18 + 12 + 64 and packet.mmt is header
        gone = weakref.ref(packet)
        del packet
        assert gone() is None

        pilot = PilotTestbed(
            sim=Simulator(seed=31), config=PilotConfig(wan_delay_ns=10 * MILLISECOND)
        )
        pilot.send_stream(MESSAGES, payload_size=8000, interval_ns=2_000)
        gc.collect()
        assert pilot.run().complete
        assert gc.collect() == 0  # 800 messages, thousands of packets, no garbage
    finally:
        gc.enable()
