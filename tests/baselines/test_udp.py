"""UDP stack: binding, demux, loss transparency."""

import pytest

from repro.baselines import UdpError, UdpStack, remote_address
from tests.conftest import TwoHostRig


def test_datagram_delivery(sim, rig):
    sa = UdpStack(rig.a)
    sb = UdpStack(rig.b)
    got = []
    sb.bind(9000, on_datagram=lambda p, s: got.append(remote_address(p)))
    sock = sa.bind(1234)
    assert sock.send_to(rig.b.ip, 9000, 500)
    sim.run()
    assert got == [(rig.a.ip, 1234)]


def test_port_demux(sim, rig):
    sa = UdpStack(rig.a)
    sb = UdpStack(rig.b)
    first, second = [], []
    sb.bind(9000, on_datagram=lambda p, s: first.append(p))
    sb.bind(9001, on_datagram=lambda p, s: second.append(p))
    sock = sa.bind(1)
    sock.send_to(rig.b.ip, 9000, 10)
    sock.send_to(rig.b.ip, 9001, 10)
    sock.send_to(rig.b.ip, 9001, 10)
    sim.run()
    assert len(first) == 1
    assert len(second) == 2


def test_unbound_port_counted(sim, rig):
    sa = UdpStack(rig.a)
    sb = UdpStack(rig.b)
    sa.bind(1).send_to(rig.b.ip, 7777, 10)
    sim.run()
    assert sb.rx_no_socket == 1


def test_double_bind_rejected(sim, rig):
    stack = UdpStack(rig.a)
    stack.bind(5)
    with pytest.raises(UdpError):
        stack.bind(5)


def test_no_reliability_under_loss(sim):
    rig = TwoHostRig(sim, loss_rate=0.5)
    sa = UdpStack(rig.a)
    sb = UdpStack(rig.b)
    got = []
    sb.bind(9000, on_datagram=lambda p, s: got.append(p))
    sock = sa.bind(1)
    for _ in range(200):
        sock.send_to(rig.b.ip, 9000, 100)
    sim.run()
    # Roughly half vanish and stay vanished: UDP does nothing about it.
    assert 50 < len(got) < 150
    assert sock.tx_datagrams == 200


def test_counters(sim, rig):
    sa = UdpStack(rig.a)
    sb = UdpStack(rig.b)
    rx_sock = sb.bind(9000)
    sock = sa.bind(1)
    sock.send_to(rig.b.ip, 9000, 123)
    sim.run()
    assert sock.tx_bytes == 123
    assert rx_sock.rx_datagrams == 1
    assert rx_sock.rx_bytes == 123
