"""Links and ports: serialization, propagation, loss, MTU."""

import pytest

from repro.netsim import (
    DropTailQueue,
    EthernetHeader,
    Link,
    Packet,
    Simulator,
    SinkNode,
    units,
)
from repro.netsim.link import WIRE_OVERHEAD_BYTES


def build_pair(sim, rate_bps=units.gbps(1), delay_ns=1000, **link_kwargs):
    a = SinkNode(sim, "a")
    b = SinkNode(sim, "b")
    pa = a.add_port("p")
    pb = b.add_port("p")
    link = Link(sim, pa, pb, rate_bps=rate_bps, propagation_delay_ns=delay_ns, **link_kwargs)
    return a, b, pa, pb, link


def make_train(n, size=1000):
    return [Packet(payload_size=size, meta={"i": i}) for i in range(n)]


def test_delivery_time_is_serialization_plus_propagation():
    sim = Simulator()
    _a, b, pa, _pb, _link = build_pair(sim, rate_bps=units.gbps(1), delay_ns=5000)
    p = Packet(payload_size=1500 - WIRE_OVERHEAD_BYTES)
    assert pa.send(p)
    sim.run()
    arrival = b.received[0][0]
    assert arrival == units.transmission_time_ns(1500, units.gbps(1)) + 5000


def test_back_to_back_packets_serialize_sequentially():
    sim = Simulator()
    _a, b, pa, _pb, _link = build_pair(sim, rate_bps=units.gbps(1), delay_ns=0)
    size = 1000
    for _ in range(3):
        pa.send(Packet(payload_size=size))
    sim.run()
    times = [t for t, _ in b.received]
    gap = units.transmission_time_ns(size + WIRE_OVERHEAD_BYTES, units.gbps(1))
    assert times == [gap, 2 * gap, 3 * gap]


def test_serial_sends_cost_linear_events():
    sim = Simulator()
    _a, b, pa, _pb, _link = build_pair(sim)
    for packet in make_train(8):
        pa.send(packet)
    sim.run()
    assert b.rx_packets == 8
    assert sim.events_processed == 16  # 2 per packet


def test_full_duplex_no_interference():
    sim = Simulator()
    a, b, pa, pb, _link = build_pair(sim, rate_bps=units.gbps(1), delay_ns=100)
    pa.send(Packet(payload_size=1000))
    pb.send(Packet(payload_size=1000))
    sim.run()
    assert a.rx_packets == 1
    assert b.rx_packets == 1
    # Same size, same rate: both deliveries are simultaneous.
    assert a.received[0][0] == b.received[0][0]


def test_oversized_frame_dropped_not_fragmented():
    sim = Simulator()
    _a, b, pa, _pb, link = build_pair(sim, mtu_bytes=1500)
    big = Packet(headers=[EthernetHeader()], payload_size=1501)  # one byte over
    assert big.size_bytes > link.max_frame_bytes
    assert not pa.send(big)
    sim.run()
    assert b.rx_packets == 0
    assert pa.stats.drops_mtu == 1


def test_random_loss_is_seeded_and_proportional():
    sim = Simulator(seed=99)
    _a, b, pa, _pb, link = build_pair(sim, delay_ns=0, loss_rate=0.3)
    for _ in range(1000):
        pa.send(Packet(payload_size=100))
    sim.run()
    lost = link.stats.lost_random
    assert 200 < lost < 400  # ~300 expected
    assert b.rx_packets == 1000 - lost


def test_loss_is_deterministic_per_seed():
    def run(seed):
        sim = Simulator(seed=seed)
        _a, b, pa, _pb, _link = build_pair(sim, delay_ns=0, loss_rate=0.5)
        for _ in range(100):
            pa.send(Packet(payload_size=10))
        sim.run()
        return b.rx_packets

    assert run(7) == run(7)
    assert run(7) != run(8) or run(7) != run(9)  # overwhelmingly likely


def test_bit_error_rate_scales_with_size():
    sim = Simulator(seed=3)
    _a, b, pa, _pb, link = build_pair(sim, delay_ns=0, bit_error_rate=1e-5)
    pa.queue = DropTailQueue(10_000_000)  # hold the whole burst
    for _ in range(500):
        pa.send(Packet(payload_size=9000))
    sim.run()
    # P(corrupt) = 1-(1-1e-5)^72000 ~ 51% of 500.
    assert 180 < link.stats.lost_corruption < 330
    assert b.rx_packets == 500 - link.stats.lost_corruption


def test_link_down_blackholes():
    sim = Simulator()
    _a, b, pa, _pb, link = build_pair(sim)
    link.up = False
    pa.send(Packet(payload_size=100))
    sim.run()
    assert b.rx_packets == 0


def test_send_without_link_fails():
    sim = Simulator()
    node = SinkNode(sim, "lonely")
    port = node.add_port("p")
    assert not port.send(Packet(payload_size=10))
    assert port.stats.drops_no_link == 1


def test_queue_overflow_counted_on_port():
    sim = Simulator()
    _a, b, pa, _pb, _link = build_pair(sim, rate_bps=1_000_000)  # slow link
    pa.queue = DropTailQueue(2000)
    sent = sum(1 for _ in range(10) if pa.send(Packet(payload_size=900)))
    sim.run()
    assert pa.stats.drops_queue > 0
    assert b.rx_packets == sent


def test_egress_hook_can_rewrite_or_drop():
    sim = Simulator()
    _a, b, pa, _pb, _link = build_pair(sim)
    seen = []

    def hook(p):
        seen.append(p)
        return None if p.payload_size == 13 else p

    pa.egress_hooks.append(hook)
    pa.send(Packet(payload_size=13))
    pa.send(Packet(payload_size=99))
    sim.run()
    assert len(seen) == 2
    assert b.rx_packets == 1


def test_link_validation():
    sim = Simulator()
    a = SinkNode(sim, "a")
    b = SinkNode(sim, "b")
    with pytest.raises(ValueError):
        Link(sim, a.add_port("x"), b.add_port("x"), rate_bps=0, propagation_delay_ns=0)
    with pytest.raises(ValueError):
        Link(sim, a.add_port("y"), b.add_port("y"), rate_bps=1, propagation_delay_ns=-1)
    with pytest.raises(ValueError):
        Link(sim, a.add_port("z"), b.add_port("z"), rate_bps=1,
             propagation_delay_ns=0, loss_rate=1.5)


def test_discards_after_admission_reach_the_port_and_the_tracer():
    """A discipline that drops a packet *after* admitting it (deadline
    push-out, late shed at dequeue) tells the owning port: the tracer
    forgets the packet's enqueue — it will never start serializing —
    and the drop is a ``port.drop`` span, not a silent disappearance."""
    from repro.core import Feature, MmtHeader
    from repro.netsim import DeadlineAwareQueue
    from repro.trace import Tracer

    sim = Simulator()
    queue = DeadlineAwareQueue(
        3000, deadline_of=lambda p: p.meta.get("deadline"), now=lambda: sim.now
    )
    a, b = SinkNode(sim, "a"), SinkNode(sim, "b")
    pa = a.add_port("p", queue=queue)
    Link(sim, pa, b.add_port("p"), rate_bps=units.gbps(1), propagation_delay_ns=0)
    tracer = pa.tracer = Tracer(sim)
    seqs = iter(range(100))

    def send(deadline=None):
        mmt = MmtHeader(features=Feature.SEQUENCED, experiment_id=1, seq=next(seqs))
        packet = Packet(headers=[EthernetHeader(), mmt], payload_size=970)
        assert packet.size_bytes == 1000
        if deadline is not None:
            packet.meta["deadline"] = deadline
        assert pa.send(packet)
        return mmt.seq

    tx_ns = units.transmission_time_ns(1000 + WIRE_OVERHEAD_BYTES, units.gbps(1))
    on_the_wire = send(deadline=units.MILLISECOND)  # idle port: leaves at once
    best_effort = [send(), send()]
    lax = send(deadline=10 * units.MILLISECOND)  # queue now full (3 x 1000 B)
    # Three urgent arrivals push out the best-effort pair (newest first),
    # then the laxest deadline.
    survivor = send(deadline=tx_ns)  # leaves second, exactly on time
    doomed = [send(deadline=tx_ns + 1), send(deadline=tx_ns + 2)]  # late by then
    assert queue.pushouts == 3
    sim.run()

    assert [p.find(MmtHeader).seq for _t, p in b.received] == [on_the_wire, survivor]
    assert queue.late_drops == 2 and len(queue) == 0
    drops = [(e.seq, e.attrs["reason"]) for e in tracer.events() if e.kind == "port.drop"]
    assert drops == [
        (best_effort[1], "pushout"), (best_effort[0], "pushout"), (lax, "pushout"),
        (doomed[0], "late"), (doomed[1], "late"),
    ]
    assert len(drops) == queue.pushouts + queue.late_drops
    assert not tracer._enqueued_at
    # The survivor waited one serialization behind the first packet.
    (wait,) = [e for e in tracer.events() if e.kind == "queue.wait"]
    assert (wait.seq, wait.attrs["wait_ns"]) == (survivor, tx_ns)
