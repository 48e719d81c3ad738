"""MmtStack control-message handling edge cases (NAK service itself:
``test_nak_service.py``, over both hosts)."""

import pytest

from repro.core import (
    BackpressurePayload,
    DeadlineMissPayload,
    HeartbeatPayload,
    MmtHeader,
    MmtStack,
    ModeAnnouncePayload,
    MsgType,
    NakPayload,
    SeqRange,
    WindowUpdatePayload,
    extended_registry,
    make_experiment_id,
)
from repro.netsim import Topology, units

EXP = 7
EXP_ID = make_experiment_id(EXP)


def chain(sim):
    """source, mid, sink hosts joined through one router hub."""
    topo = Topology(sim)
    source = topo.add_host("source", ip="10.0.0.2")
    mid = topo.add_host("mid", ip="10.0.1.2")
    sink = topo.add_host("sink", ip="10.0.2.2")
    hub = topo.add_router("hub")
    topo.connect(source, hub, units.gbps(10), 10_000)
    topo.connect(mid, hub, units.gbps(10), 10_000)
    topo.connect(sink, hub, units.gbps(10), 10_000)
    topo.install_routes()
    return topo, source, mid, sink


def test_nak_without_local_buffer_is_ignored(sim):
    _topo, source, mid, sink = chain(sim)
    stack_mid = MmtStack(mid)  # no buffer attached
    stack_sink = MmtStack(sink)
    header = MmtHeader(msg_type=MsgType.NAK, experiment_id=EXP_ID)
    stack_sink.send_control(mid.ip, header, NakPayload(ranges=[SeqRange(0, 3)]).encode())
    sim.run()  # must not raise; silently dropped


def test_deadline_miss_callback_invoked(sim):
    _topo, source, mid, _sink = chain(sim)
    stack_source = MmtStack(source)
    stack_mid = MmtStack(mid)
    seen = []
    stack_source.on_deadline_miss = seen.append
    report = DeadlineMissPayload(seq=4, deadline_ns=10, observed_ns=20, experiment_id=EXP_ID)
    header = MmtHeader(msg_type=MsgType.DEADLINE_MISS, experiment_id=EXP_ID)
    stack_mid.send_control(source.ip, header, report.encode())
    sim.run()
    assert seen == [report]
    assert stack_source.deadline_misses == [report]


def test_unknown_experiment_data_counted(sim):
    _topo, source, mid, _sink = chain(sim)
    stack_source = MmtStack(source)
    stack_mid = MmtStack(mid)
    sender = stack_source.create_sender(
        experiment_id=make_experiment_id(99), mode="identify", dst_ip=mid.ip
    )
    sender.send(10)
    sim.run()
    assert stack_mid.rx_unknown_experiment == 1


CONTROL_MESSAGES = [
    (MsgType.NAK, NakPayload(ranges=[SeqRange(0, 3)])),
    (MsgType.DEADLINE_MISS, DeadlineMissPayload(4, 10, 20, EXP_ID)),
    (MsgType.BACKPRESSURE, BackpressurePayload(100, "10.0.2.2")),
    (MsgType.WINDOW, WindowUpdatePayload(credits=8, delivered_total=8)),
    (MsgType.MODE_ANNOUNCE, ModeAnnouncePayload(1, "10.0.2.2", 5)),
    (MsgType.HEARTBEAT, HeartbeatPayload(highest_seq=9, packets_sent=10)),
]


@pytest.mark.parametrize("cut", [0, 3], ids=["empty", "truncated"])
@pytest.mark.parametrize(
    "msg_type, payload", CONTROL_MESSAGES, ids=[m.name for m, _ in CONTROL_MESSAGES]
)
def test_malformed_control_is_a_counted_drop(sim, msg_type, payload, cut):
    """Hostile control input ends in a counter, never in an exception
    out of ``Simulator.run()`` and never in changed protocol state."""
    _topo, _source, mid, sink = chain(sim)
    stack_mid = MmtStack(mid, extended_registry())
    stack_mid.attach_buffer(1_000_000)
    receiver = stack_mid.bind_receiver(EXP)
    sender = stack_mid.create_sender(
        experiment_id=EXP_ID, mode="backpressured", dst_ip=sink.ip,
        pace_rate_mbps=1_000,
    )
    header = MmtHeader(msg_type=msg_type, experiment_id=EXP_ID)
    MmtStack(sink).send_control(mid.ip, header, payload.encode()[:cut])
    sim.run()
    assert stack_mid.rx_malformed == 1
    assert stack_mid.buffer.stats.nak_requests == 0
    assert stack_mid.deadline_misses == [] and stack_mid.mode_announcements == {}
    assert sender.stats.backpressure_signals == 0 and sender.pace_rate_mbps == 1_000
    assert sender.stats.window_updates_received == 0
    assert receiver.stats.heartbeats_received == 0 and receiver.outstanding() == 0
