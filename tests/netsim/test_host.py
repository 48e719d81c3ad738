"""Host protocol stack: demux, addressing, routing."""

import pytest

from repro.netsim import EtherType, IpProto, Ipv4Header, Packet, UdpHeader, units


def test_ip_delivery_between_hosts(rig):
    got = []
    rig.b.register_l3_protocol(IpProto.UDP, got.append)
    assert rig.a.send_ip(rig.b.ip, IpProto.UDP, [UdpHeader(dst_port=9)], payload_size=100)
    rig.sim.run()
    assert len(got) == 1
    assert got[0].find(Ipv4Header).src == rig.a.ip


def test_wrong_destination_ip_ignored(rig):
    got = []
    rig.b.register_l3_protocol(IpProto.UDP, got.append)
    # Craft a packet addressed to a stranger but steered at b's MAC.
    rig.a.send_ip(rig.b.ip, IpProto.UDP, [], payload_size=1)
    rig.sim.run()
    before = rig.b.rx_unhandled
    pkt = Packet(
        headers=[
            # Correct MAC for b (via router rewrite is skipped; inject directly).
        ],
        payload_size=1,
    )
    # Direct injection through b's receive path:
    from repro.netsim import EthernetHeader

    stray = Packet(
        headers=[EthernetHeader(dst=rig.b.mac, ethertype=EtherType.IPV4),
                 Ipv4Header(src="1.2.3.4", dst="9.9.9.9", proto=IpProto.UDP)],
        payload_size=1,
    )
    rig.b.receive(stray, next(iter(rig.b.ports.values())))
    assert rig.b.rx_unhandled == before + 1
    assert len(got) == 1


def test_unregistered_protocol_counted(rig):
    rig.a.send_ip(rig.b.ip, IpProto.TCP, [], payload_size=1)
    rig.sim.run()
    assert rig.b.rx_unhandled == 1


def test_duplicate_protocol_registration_rejected(rig):
    rig.b.register_l3_protocol(IpProto.UDP, lambda p: None)
    with pytest.raises(ValueError):
        rig.b.register_l3_protocol(IpProto.UDP, lambda p: None)


def test_l2_protocol_dispatch(rig):
    got = []
    rig.b.register_l2_protocol(EtherType.MMT, got.append)
    # a and b are not L2 adjacent (router in between), so wire directly:
    from repro.netsim import Topology, Simulator

    sim = Simulator()
    topo = Topology(sim)
    x = topo.add_host("x")
    y = topo.add_host("y")
    topo.connect(x, y, units.gbps(1), 10)
    seen = []
    y.register_l2_protocol(EtherType.MMT, seen.append)
    assert x.send_l2("to_y", y.mac, EtherType.MMT, [], payload_size=42)
    sim.run()
    assert len(seen) == 1
    assert seen[0].payload_size == 42


def test_no_route_send_fails(rig):
    assert not rig.a.send_ip("203.0.113.1", IpProto.UDP, [], payload_size=1)
    assert rig.a.tx_no_route == 1


def test_non_ip_destination_send_fails_as_no_route(rig):
    assert not rig.a.send_ip("999.1.1.1", IpProto.UDP, [], payload_size=1)
    assert not rig.a.send_ip("not-an-ip", IpProto.UDP, [], payload_size=1)
    assert rig.a.tx_no_route == 2


def test_multihomed_secondary_address(rig):
    rig.b.add_address("10.0.2.99")
    got = []
    rig.b.register_l3_protocol(IpProto.UDP, got.append)
    # Re-install routes so the new address is reachable.
    rig.topology.install_routes()
    assert rig.a.send_ip("10.0.2.99", IpProto.UDP, [], payload_size=5)
    rig.sim.run()
    assert len(got) == 1


def test_sent_at_meta_stamped(rig):
    got = []
    rig.b.register_l3_protocol(IpProto.UDP, got.append)
    rig.sim.schedule(500, lambda: rig.a.send_ip(rig.b.ip, IpProto.UDP, [], payload_size=1))
    rig.sim.run()
    assert got[0].meta["sent_at"] == 500
