"""Deterministic host-cost budget for the Fig. 4 forward path.

``layerbench`` measures what a message costs in host time; that is
noisy and runs outside tier-1. Python *call counts* for a seeded run
repeat exactly, so this pins the two that the per-packet bookkeeping
work bought — a change that re-adds a per-hop header walk fails here,
not weeks later in a benchmark. The case is the 800-message
"fabric-like (10 ms WAN)" row of ``BENCH_fig4_pilot.json``, the same
one ``layerbench`` warms up on.

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

#: Python + builtin calls per delivered message: 503 measured, + 5 %
#: (974 before packet sizes, header lookups and validation became O(1);
#: ~610 until tables, mode rewrites and the sender's header were
#: compiled when programmed instead of interpreted per packet).
CALLS_PER_MESSAGE_BUDGET = 528

#: ``Packet.size_bytes`` reads per link traversal: MTU check, queue
#: admission, serialization, delivery (7 before; one read per function).
SIZE_READS_PER_HOP_BUDGET = 5


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

    stats = pstats.Stats(profiler)
    calls_per_message = stats.total_calls / MESSAGES
    assert calls_per_message <= CALLS_PER_MESSAGE_BUDGET, calls_per_message
    # Observation that nobody asked for costs nothing, not "little": no
    # tracer, sampler or telemetry frame runs on an unobserved pilot.
    assert calls_inside(stats, "repro/trace/", "repro/obs/", "repro/telemetry/") == 0

    size_reads = sum(
        ncalls
        for (filename, _line, name), (_cc, ncalls, *_rest) in stats.stats.items()
        if name == "size_bytes" and filename.endswith("netsim/packet.py")
    )
    hops = sum(link.stats.delivered for link in pilot.topology.links)
    assert hops == 6 * MESSAGES
    assert 0 < size_reads <= SIZE_READS_PER_HOP_BUDGET * hops, size_reads / hops


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
        shared = MmtHeader(experiment_id=1)
        packet = WeaklyWatched(headers=[EthernetHeader(), shared], payload_size=64)
        other = WeaklyWatched(headers=[shared], payload_size=8)
        assert (packet.size_bytes, other.size_bytes) == (18 + 8 + 64, 8 + 8)
        assert packet.find(MmtHeader) is shared and packet.has(EthernetHeader)
        shared.features = Feature.SEQUENCED  # a size_fields write, to its watcher
        assert (other.size_bytes, packet.size_bytes) == (12 + 8, 18 + 12 + 64)
        packet.push(EthernetHeader())
        packet.pop()
        assert packet.size_bytes == 18 + 12 + 64  # sized last: it watches ``shared``
        gone = weakref.ref(packet)
        del packet
        assert gone() is None
        assert other.size_bytes == 12 + 8 and other.find(MmtHeader) is shared
        gone = weakref.ref(other)
        del other
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
