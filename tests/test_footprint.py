"""What a run keeps costs what it weighs: footprint budgets.

A traced pilot run retains ~209 000 spans, ~48 000 INT postcards and
16 000 buffered packets; each byte a record class gains is paid that
many times, and the cyclic collector walks every tracked object of it
on every full pass. These are the gates a field added to a hot record
trips. ``tracemalloc`` counts bytes the allocator handed out, so the
numbers repeat exactly on one interpreter; the ceilings leave ~7 % for
another one's object headers (as a ``TraceEvent`` per span, a
``__dict__`` per postcard and a deque per stack the three read 365,
201 and 777).
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.netsim import EthernetHeader, Ipv4Header, UdpHeader
from repro.netsim.packet import _HeaderStack, _Memo
from repro.telemetry.inband import IntPostcard
from repro.trace import Tracer
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
    assert per_span <= 248, (
        f"a retained element.egress span weighs {per_span:.0f} bytes (budget 248): "
        "a span column, its attr values or the tracer's per-identity bookkeeping grew"
    )


def test_postcard_budget():
    def postcards(count: int) -> list:
        return [
            IntPostcard(hop_id=2, timestamp_ns=1_000_000_000 + 2_000 * i, queue_depth_pct=i % 100,
                        config_id=1, seq=100_000 + i, flow_id=0)
            for i in range(count)
        ]

    per_postcard = retained_bytes_per_record(postcards)
    assert per_postcard <= 165, (
        f"a retained IntPostcard weighs {per_postcard:.0f} bytes (budget 165): "
        "the postcard grew a field or lost its __slots__"
    )


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
    # Per chunk: the chunk, seven lists and two arrays; then the tracer,
    # its sets and list, and the test's clock.
    assert tracked <= 10 * chunks + 8, f"{RECORDS} retained spans add {tracked} tracked objects"
    events = tracer.events()
    assert len(events) == RECORDS
    for event in events[:: RECORDS // 200]:
        assert event.attrs == {"msg": "DATA", "config": 1, "queue_pct": event.seq % 100}
    shapes = {id(event.attr_keys) for event in events}
    assert len(shapes) == 1, "spans of one call site share one interned key tuple"
