"""What a run keeps costs what it weighs: footprint budgets.

A traced pilot run retains ~209 000 spans, ~48 000 INT postcards,
16 000 buffered messages (27 104 on the 64-node fleet) and ~64 000
delivery-log rows; each byte a record class gains is paid that many
times, and the cyclic collector walks every tracked object of it on
every full pass. These are the gates a field added to a hot record
trips. ``tracemalloc`` counts bytes the allocator handed out, so the
numbers repeat exactly on one interpreter; the ceilings leave ~7 % for
another one's object headers (as a ``TraceEvent`` per span, a slotted
``IntPostcard`` plus a list per packet in the INT sink, a deque per
stack and a packet copy per buffered message the four read 365, 196,
777 and 1 030; spans kept as pointer columns read 231, and an entry
holding a ``meta`` dict 604). A delivery row, a tuple of two fresh ints
in a list, read 129; its budget is the 16 bytes of two int64 columns
plus the arrays' over-allocation.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.core import Feature, MmtHeader, MmtReceiver, MmtStack, RetransmitBuffer
from repro.integration.incast import IncastConfig, run_incast
from repro.netsim import EthernetHeader, Host, IpProto, Ipv4Header, Packet, Simulator, UdpHeader
from repro.netsim.packet import _HeaderStack, _Memo
from repro.telemetry import IntHeader, IntPostcard, MetricsRegistry
from repro.trace import RecordingIntSink, Tracer, verify_int_consistency
from repro.trace.tracer import _CHUNK

RECORDS = 10_000


class Clock:
    now = 0


def retained_bytes_per_record(build) -> float:
    """Bytes still allocated per record while what ``build(RECORDS)``
    returned is alive (built once before measuring, so every type,
    shape and memo table the records share already exists)."""
    build(8)
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        kept = build(RECORDS)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del kept
    return (after - before) / RECORDS


def egress_spans(count: int) -> Tracer:
    """``element.egress`` as ``ProgrammableElement`` emits it: three
    attrs, a fresh identity and timestamp per span."""
    clock = Clock()
    tracer = Tracer(clock)
    for seq in range(count):
        clock.now = 1_000_000_000 + 2_000 * seq
        tracer.emit("element.egress", "alveo-u280", 7, 0, 100_000 + seq,
                    msg="DATA", config=1, queue_pct=seq % 100)
    return tracer


def test_span_budget():
    per_span = retained_bytes_per_record(egress_spans)
    assert per_span <= 79, (
        f"a retained element.egress span weighs {per_span:.0f} bytes (budget 79): "
        "a span column, its attr values or the tracer's per-identity bookkeeping grew"
    )


def marked(first: int) -> Packet:
    """A packet as the Fig. 4 pilot's sink receives it: three postcards,
    U280 → Tofino2 → U55C."""
    seq = 100_000 + first
    stack = IntHeader(hops=[
        IntPostcard(hop_id=hop, timestamp_ns=1_000_000_000 + 2_000 * first + 500 * hop,
                    queue_depth_pct=first % 100, config_id=1, seq=seq)
        for hop in (1, 2, 3)
    ])
    return Packet([MmtHeader(experiment_id=10752, seq=seq, flow_id=0), stack], payload_size=8000)


def recorded(count: int) -> RecordingIntSink:
    sink = RecordingIntSink(MetricsRegistry(), hop_names={1: "alveo-u280", 2: "tofino2"})
    for first in range(0, count, 3):
        sink.absorb(marked(first))
    return sink


def test_postcard_budget():
    per_postcard = retained_bytes_per_record(recorded)
    assert per_postcard <= 77, (
        f"a logged postcard weighs {per_postcard:.0f} bytes (budget 77): the sink's "
        "log grew a column, or keeps postcard objects again instead of columns"
    )


def test_logged_postcards_are_not_objects_the_collector_walks():
    """The sink's log is ten typed arrays, whatever it holds (an
    ``IntPostcard`` per postcard and a list and tuple per packet added
    16 690 here); the rest is the sink and its registry's instruments."""
    recorded(8)
    gc.collect()
    before = len(gc.get_objects())
    sink = recorded(RECORDS)
    gc.collect()
    tracked = len(gc.get_objects()) - before
    assert tracked <= 64, f"{RECORDS} logged postcards add {tracked} tracked objects"
    assert len(sink.postcards["hop_id"]) == RECORDS + 2


def test_int_cross_check_builds_no_index_of_the_trace():
    """The cross-check bisects the tracer's own clock column: what it
    allocates does not grow with the trace (a dict of every egress span
    took 281 bytes a span). Fewer records than the budgets above: every
    allocation the check makes is traced, which is slow."""
    count = 2_000
    tracer = egress_spans(count)
    sink = RecordingIntSink(MetricsRegistry(), hop_names={1: "alveo-u280"})
    for seq in range(count):
        stack = IntHeader(hops=[IntPostcard(hop_id=1, timestamp_ns=1_000_000_000 + 2_000 * seq,
                                            queue_depth_pct=seq % 100, config_id=1,
                                            seq=100_000 + seq)])
        sink.absorb(Packet([MmtHeader(experiment_id=7, seq=100_000 + seq, flow_id=0), stack],
                           payload_size=8000))
    verify_int_consistency(tracer.events(), sink)  # every type and memo exists
    gc.collect()
    tracemalloc.start()
    try:
        report = verify_int_consistency(tracer.events(), sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok and report.postcards_checked == count, report.mismatches[:3]
    assert peak <= 32 * 1024, f"checking {count} postcards took {peak} bytes at peak"


def test_header_stack_budget():
    headers = [EthernetHeader(), Ipv4Header(), UdpHeader()]

    def stacks(count: int) -> list:
        return [_HeaderStack(headers) for _ in range(count)]

    per_stack = retained_bytes_per_record(stacks)
    assert per_stack <= 130, (
        f"a three-header _HeaderStack weighs {per_stack:.0f} bytes (budget 130): "
        "the stack's container grew (a deque costs ~780 however few headers it holds)"
    )
    stack = _HeaderStack(headers)
    stack._memo = _Memo()  # the one slot a packet fills in; no __dict__ beside it
    assert not hasattr(stack, "__dict__")


def mirrored(count: int) -> RetransmitBuffer:
    """The U280's buffer in the Fig. 4 pilot: each entry an Ethernet/
    IPv4/MMT frame of 8 000 virtual payload bytes and the sender's meta,
    stored the way the element mirrors it."""
    buffer = RetransmitBuffer(1 << 40, address="10.20.0.2")
    for seq in range(count):
        mmt = MmtHeader(
            config_id=1, experiment_id=10752, seq=seq, buffer_addr="10.20.0.2",
            features=Feature.SEQUENCED | Feature.RETRANSMISSION | Feature.AGE_TRACKING,
            age_ns=0, age_budget_ns=50_000_000,
        )
        frame = Packet(
            [EthernetHeader(), Ipv4Header(proto=IpProto.MMT), mmt], payload_size=8000,
            meta={"sent_at": 2_000 * seq, "flow": "pilot", "mmt_age_epoch": 14_934 + 2_000 * seq},
        )
        buffer.store(10752, seq, mmt, frame.payload_size, frame.payload, frame.meta, 0,
                     frame.size_bytes)
    return buffer


def test_buffered_message_budget():
    per_entry = retained_bytes_per_record(mirrored)
    assert per_entry <= 466, (
        f"a buffered message weighs {per_entry:.0f} bytes (budget 466): the buffer "
        "entry grew, or holds a packet or a meta dict again instead of flat values"
    )


def test_buffered_messages_are_not_objects_the_collector_walks():
    """An entry is one flat tuple of atomic values and its key a tuple of
    ints, so the collector untracks both (a packet copy per entry added
    60 000 here, an entry holding a meta dict 10 000)."""
    gc.collect()
    before = len(gc.get_objects())
    buffer = mirrored(RECORDS)
    gc.collect()
    tracked = len(gc.get_objects()) - before
    # The buffer, its stats, its store and its table of meta key tuples.
    assert tracked <= 8, f"{RECORDS} buffered messages add {tracked} tracked objects"
    assert len(buffer) == RECORDS


def delivered(count: int) -> MmtReceiver:
    """DTN 2's receiver handed a message every 2 µs, each with its own
    send time, so every logged clock and latency is a fresh int. One
    message is in flight at a time: a heap of them all would leave
    CPython's tuple free lists full, ~24 bytes a record that no log keeps."""
    sim = Simulator()
    receiver = MmtStack(Host(sim, "dtn2", "10.30.0.2", "02:00:00:00:30:02")).bind_receiver(7)
    header = MmtHeader(experiment_id=7)
    for seq in range(count):
        packet = Packet([header], payload_size=8000, meta={"sent_at": 1_000_000 + 1_999 * seq})
        sim.schedule_at(1_000_000_000 + 2_000 * seq, receiver.handle, packet, header)
        sim.run()
    return receiver


def test_delivery_log_budget():
    receiver = delivered(8)
    assert list(receiver.delivery_log)[-1] == (1_000_014_000, 999_000_007)
    per_row = retained_bytes_per_record(delivered)
    assert per_row <= 24, (
        f"a logged delivery weighs {per_row:.0f} bytes (budget 24): the log keeps "
        "a tuple and its ints per row again instead of int64 columns"
    )


def test_retained_spans_are_not_objects_the_collector_walks():
    """The collector walks each tracked object on every full pass, so
    the log holds a few columns per chunk and nothing per span (a
    ``TraceEvent`` per span added 10 000 here)."""
    gc.collect()
    before = len(gc.get_objects())
    tracer = egress_spans(RECORDS)
    gc.collect()
    tracked = len(gc.get_objects()) - before
    chunks = -(-RECORDS // _CHUNK)
    assert len(tracer._chunks) == chunks
    # Per chunk: the chunk and its values list (typed arrays, ranges and
    # an empty escape table are not tracked); then the tracer, its sets
    # and lists, and the test's clock.
    assert tracked <= 10 * chunks + 8, f"{RECORDS} retained spans add {tracked} tracked objects"
    events = tracer.events()
    assert len(events) == RECORDS
    for event in events[:: RECORDS // 200]:
        assert event.attrs == {"msg": "DATA", "config": 1, "queue_pct": event.seq % 100}
    shapes = {id(event.attr_keys) for event in events}
    assert len(shapes) == 1, "spans of one call site share one interned key tuple"


def finished_incast_cell() -> list:
    """The N=16 TCP cell of layerbench's incast_n16 (seed 7), run to its
    horizon, with its fabric (and so its simulator) kept alive."""
    config = IncastConfig(transport="tcp", senders=16, load=1.5, mark_threshold=0.2,
                          symmetric=True, ecn=True, seed=7)
    kept: list = []
    kept.append(run_incast(config, instrument=kept.append))
    return kept


def test_incast_cell_budget():
    """What a finished cell keeps: 340 247 bytes. Its fabric used to seed
    a ``random.Random`` (2 560 bytes) per link and RED port whether or
    not it ever drew, 49 in this cell where 2 draw, and to key each route
    on an ``IPv4Network``: 475 883 bytes."""
    finished_incast_cell()
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        kept = finished_incast_cell()
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept[1].summary.completed == 16
    retained = after - before
    assert retained <= 364_000, (
        f"a finished incast cell keeps {retained} bytes (budget 364 000): the fabric "
        "seeds streams it never draws from again, or a route, port or queue grew"
    )
