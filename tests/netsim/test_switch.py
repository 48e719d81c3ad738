"""L2 learning switch and L3 router behaviour."""

import pytest

from repro.netsim import (
    EthernetHeader,
    IpProto,
    Ipv4Header,
    Link,
    Packet,
    RoutingTable,
    Simulator,
    SinkNode,
    units,
)
from repro.netsim.switch import EthernetSwitch, IpRouter


def wire(sim, a, b, rate=units.gbps(10), delay=100):
    return Link(sim, a.add_port(f"to_{b.name}"), b.add_port(f"to_{a.name}"),
                rate_bps=rate, propagation_delay_ns=delay)


class TestRoutingTable:
    def test_longest_prefix_wins(self):
        table = RoutingTable()
        table.add("10.0.0.0/8", "coarse", "m1")
        table.add("10.1.0.0/16", "fine", "m2")
        assert table.lookup("10.1.2.3").port_name == "fine"
        assert table.lookup("10.2.2.3").port_name == "coarse"

    def test_no_match_returns_none(self):
        table = RoutingTable()
        table.add("10.0.0.0/8", "p", "m")
        assert table.lookup("192.168.1.1") is None

    def test_host_route(self):
        table = RoutingTable()
        table.add("10.0.0.0/8", "net", "m1")
        table.add("10.0.0.5/32", "host", "m2")
        assert table.lookup("10.0.0.5").port_name == "host"


    def test_readd_replaces_and_keeps_one_entry(self):
        table = RoutingTable()
        table.add("10.0.0.0/8", "old", "m1")
        assert table.lookup("10.9.9.9").port_name == "old"
        table.add("10.7.7.7/8", "new", "m2")  # same network, host bits set
        assert len(table) == 1
        assert table.lookup("10.9.9.9").port_name == "new"

    def test_non_ip_destination_is_a_miss_not_an_exception(self):
        table = RoutingTable()
        table.add("0.0.0.0/0", "default", "m")
        for hostile in ("not-an-ip", "999.1.1.1", "", "10.0.0.1/32"):
            assert table.lookup(hostile) is None
            assert table.lookup(hostile) is None  # memoised like any miss
        assert table.lookup("10.0.0.1").port_name == "default"

    def test_malformed_prefix_raises_at_configuration_time(self):
        table = RoutingTable()
        with pytest.raises(ValueError):
            table.add("not-a-prefix/8", "p", "m")
        with pytest.raises(ValueError):
            table.add("10.0.0.0/33", "p", "m")
        assert len(table) == 0


class TestEthernetSwitch:
    def build(self):
        sim = Simulator()
        sw = EthernetSwitch(sim, "sw")
        hosts = [SinkNode(sim, f"h{i}") for i in range(3)]
        for h in hosts:
            wire(sim, sw, h)
        return sim, sw, hosts

    def frame(self, src, dst, size=100):
        return Packet(headers=[EthernetHeader(src=src, dst=dst)], payload_size=size)

    def test_unknown_destination_flooded(self):
        sim, sw, hosts = self.build()
        sw.receive(self.frame("aa:aa:aa:aa:aa:aa", "bb:bb:bb:bb:bb:bb"),
                   sw.ports["to_h0"])
        sim.run()
        assert hosts[0].rx_packets == 0  # not back out the ingress
        assert hosts[1].rx_packets == 1
        assert hosts[2].rx_packets == 1
        assert sw.flooded == 1

    def test_learned_destination_unicast(self):
        sim, sw, hosts = self.build()
        # h1's MAC learned from a frame it sent.
        sw.receive(self.frame("bb:bb", "ff:ff:ff:ff:ff:ff"), sw.ports["to_h1"])
        sim.run()
        sw.receive(self.frame("aa:aa", "bb:bb"), sw.ports["to_h0"])
        sim.run()
        assert hosts[1].rx_packets >= 1
        assert hosts[2].rx_packets == 1  # only the broadcast
        assert sw.forwarded == 1

    def test_same_port_frames_not_reflected(self):
        sim, sw, hosts = self.build()
        sw.receive(self.frame("aa:aa", "ff:ff:ff:ff:ff:ff"), sw.ports["to_h0"])
        sim.run()
        sw.receive(self.frame("bb:bb", "aa:aa"), sw.ports["to_h0"])
        sim.run()
        assert hosts[0].rx_packets == 0

    def test_non_ethernet_dropped(self):
        sim, sw, _hosts = self.build()
        sw.receive(Packet(payload_size=10), sw.ports["to_h0"])
        assert sw.dropped_no_l2 == 1


class TestIpRouter:
    def build(self):
        sim = Simulator()
        router = IpRouter(sim, "r", mac="02:00:00:00:00:99")
        a = SinkNode(sim, "a")
        b = SinkNode(sim, "b")
        wire(sim, router, a)
        wire(sim, router, b)
        router.add_route("10.1.0.0/16", "to_a", "02:aa")
        router.add_route("10.2.0.0/16", "to_b", "02:bb")
        return sim, router, a, b

    def packet(self, dst, ttl=64):
        return Packet(
            headers=[EthernetHeader(), Ipv4Header(dst=dst, ttl=ttl, proto=IpProto.UDP)],
            payload_size=50,
        )

    def test_forwards_by_prefix_and_rewrites_l2(self):
        sim, router, a, b = self.build()
        router.receive(self.packet("10.2.3.4"), router.ports["to_a"])
        sim.run()
        assert b.rx_packets == 1
        _t, delivered = b.received[0]
        eth = delivered.find(EthernetHeader)
        assert eth.src == "02:00:00:00:00:99"
        assert eth.dst == "02:bb"

    def test_ttl_decremented(self):
        sim, router, _a, b = self.build()
        router.receive(self.packet("10.2.3.4", ttl=10), router.ports["to_a"])
        sim.run()
        assert b.received[0][1].find(Ipv4Header).ttl == 9

    def test_ttl_expiry_drops(self):
        sim, router, _a, b = self.build()
        router.receive(self.packet("10.2.3.4", ttl=1), router.ports["to_a"])
        sim.run()
        assert b.rx_packets == 0
        assert router.dropped_ttl == 1

    def test_no_route_drops(self):
        sim, router, _a, _b = self.build()
        router.receive(self.packet("192.168.0.1"), router.ports["to_a"])
        assert router.dropped_no_route == 1

    def test_non_ip_destination_counts_as_no_route(self):
        sim, router, a, b = self.build()
        router.receive(self.packet("not-an-ip"), router.ports["to_a"])
        sim.run()
        assert router.dropped_no_route == 1
        assert a.rx_packets == b.rx_packets == 0

    def test_route_to_unknown_port_rejected(self):
        sim = Simulator()
        router = IpRouter(sim, "r")
        with pytest.raises(ValueError):
            router.add_route("10.0.0.0/8", "nope", "02:aa")
