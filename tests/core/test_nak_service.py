"""NAK service, once: the same cases against both hosts of the one
:class:`~repro.core.retransmit.NakResponder` — a buffer on a host's
:class:`MmtStack` and a buffer on a :class:`ProgrammableElement`."""

from dataclasses import dataclass

import pytest

from repro.core import (
    Feature,
    MmtHeader,
    MmtStack,
    MsgType,
    NakPayload,
    ReceiverConfig,
    RetransmitBuffer,
    SeqRange,
    make_experiment_id,
)
from repro.dataplane import ProgrammableElement
from repro.netsim import Topology, units

EXP = 7
EXP_ID = make_experiment_id(EXP)


@dataclass
class Rig:
    """sink (requester) NAKs ``node``; ``source`` is node's fallback."""

    node: object  # MmtStack or ProgrammableElement: .buffer, .responder, ...
    addr: str
    source: MmtStack
    sink: MmtStack
    got: list

    @property
    def buffer(self) -> RetransmitBuffer:
        return self.node.buffer

    def nak(self, first: int, last: int, payload: bytes | None = None) -> None:
        header = MmtHeader(msg_type=MsgType.NAK, experiment_id=EXP_ID)
        if payload is None:
            payload = NakPayload(ranges=[SeqRange(first, last)]).encode()
        self.sink.send_control(self.addr, header, payload)


def cache(buffer, seq, buffer_addr, sent_at=None):
    header = MmtHeader(
        features=Feature.SEQUENCED | Feature.RETRANSMISSION,
        seq=seq, buffer_addr=buffer_addr, experiment_id=EXP_ID,
    )
    meta = None if sent_at is None else {"sent_at": sent_at, "flow": "daq"}
    buffer.store(EXP_ID, seq, header, 32, b"x" * 32, meta)


@pytest.fixture(params=["stack", "element"])
def rig(request, sim):
    topo = Topology(sim)
    source = topo.add_host("source", ip="10.0.0.2")
    sink = topo.add_host("sink", ip="10.0.2.2")
    if request.param == "stack":
        mid = topo.add_host("mid", ip="10.0.1.2")
        hub = topo.add_router("hub")
        for host in (source, mid, sink):
            topo.connect(host, hub, units.gbps(10), 10_000)
        node, addr = MmtStack(mid), mid.ip
    else:
        node = ProgrammableElement(sim, "el", mac=topo.allocate_mac(), ip="10.0.1.1")
        addr = node.ip
        topo.add(node)
        topo.connect(source, node, units.gbps(10), 10_000)
        topo.connect(node, sink, units.gbps(10), 10_000)
    topo.install_routes()
    node.attach_buffer(1_000_000)
    node.nak_fallback_addr = source.ip
    source_stack = MmtStack(source)
    source_stack.attach_buffer(1_000_000)
    sink_stack = MmtStack(sink)
    got = []
    # The sink only answers for what the test asks it to request.
    sink_stack.bind_receiver(
        EXP, on_message=lambda p, h: got.append((h, dict(p.meta))),
        config=ReceiverConfig(detect_gaps=False),
    )
    return Rig(node, addr, source_stack, sink_stack, got)


def test_hit_is_reoriginated_as_retx_keeping_the_cached_meta(rig, sim):
    cache(rig.buffer, 4, rig.addr, sent_at=123)
    sim.schedule(50_000, rig.nak, 4, 4)
    sim.run()
    assert [(h.seq, h.msg_type) for h, _ in rig.got] == [(4, MsgType.RETX_DATA)]
    _header, meta = rig.got[0]
    # Latency/age accounting spans the message's whole lifetime.
    assert meta["sent_at"] == 123 and meta["flow"] == "daq" and meta["retx"] is True
    assert rig.buffer.stats.hits == 1
    assert rig.source.buffer.stats.nak_requests == 0  # nothing unmet, no forward
    if isinstance(rig.node, ProgrammableElement):
        assert rig.node.stats.naks_served == 1
        assert rig.node.stats.nak_packets_resent == 1


def test_a_nak_naming_a_seq_many_times_resends_it_once(rig, sim):
    """Duplicate and overlapping ranges in one NAK are coalesced before
    the buffer serves them: ten held packets go out ten times, not 50."""
    for seq in range(10):
        cache(rig.buffer, seq, rig.addr)
    ranges = [SeqRange(0, 9)] * 4 + [SeqRange(2, 5), SeqRange(4, 9)]
    rig.nak(0, 0, payload=NakPayload(ranges=ranges).encode())
    sim.run()
    assert sorted(h.seq for h, _ in rig.got) == list(range(10))
    assert rig.buffer.stats.hits == 10
    assert rig.source.buffer.stats.nak_requests == 0  # nothing unmet, no forward
    if isinstance(rig.node, ProgrammableElement):
        assert rig.node.stats.nak_packets_resent == 10


def test_unmet_ranges_go_to_fallback_with_requester_as_source(rig, sim):
    """node misses -> forwards the unmet ranges to source, preserving
    the original requester so the resend goes straight to the sink."""
    cache(rig.buffer, 1, rig.addr)
    cache(rig.source.buffer, 0, rig.addr)
    cache(rig.source.buffer, 2, rig.addr)
    rig.nak(0, 2)
    sim.run()
    assert sorted(h.seq for h, _ in rig.got) == [0, 1, 2]
    assert rig.buffer.stats.hits == 1
    assert rig.source.buffer.stats.hits == 2


def test_identical_forwards_are_suppressed_after_three(rig, sim):
    """A NAK for data nobody holds is forwarded three times, then the
    anti-loop guard mutes it (a mis-wired fallback cycle dies out)."""
    for i in range(5):
        sim.schedule(i * 100_000, rig.nak, 5, 5)
    sim.run()
    assert rig.source.buffer.stats.nak_requests == 3
    assert rig.node.responder.guard.suppressed == 2
    assert rig.got == []


def test_fallback_cycle_terminates(rig, sim):
    """Even if operators mis-wire fallbacks into a cycle, a NAK for
    data nobody holds dies out instead of circulating forever."""
    rig.source.nak_fallback_addr = rig.addr  # the mis-wiring
    rig.nak(5, 5)
    processed = sim.run(max_events=100_000)
    assert processed < 100_000, "fallback NAKs must not loop forever"


def test_failed_buffer_forwards_everything(rig, sim):
    cache(rig.buffer, 4, rig.addr)
    cache(rig.source.buffer, 4, rig.addr)
    rig.buffer.fail()
    rig.nak(4, 4)
    sim.run()
    assert [h.seq for h, _ in rig.got] == [4]
    assert rig.buffer.stats.hits == 0
    assert rig.source.buffer.stats.hits == 1


@pytest.mark.parametrize("payload", [b"", b"\x00\x01\x00\x00"], ids=["empty", "truncated"])
def test_malformed_nak_is_a_counted_drop(rig, sim, payload):
    cache(rig.buffer, 4, rig.addr)
    rig.nak(4, 4, payload=payload)
    sim.run()
    # A stack counts on itself, an element in its ElementStats.
    assert getattr(rig.node, "stats", rig.node).rx_malformed == 1
    assert rig.buffer.stats.nak_requests == 0 and rig.got == []
