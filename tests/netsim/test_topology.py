"""Topology builder: wiring, addressing, route installation."""

import pytest

from repro.netsim import IpProto, Topology, TopologyError, units
from repro.netsim.link import HOST_QUEUE_BYTES


def test_duplicate_names_rejected(sim):
    topo = Topology(sim)
    topo.add_host("x")
    with pytest.raises(TopologyError):
        topo.add_host("x")


def test_connect_unknown_node(sim):
    topo = Topology(sim)
    topo.add_host("a")
    with pytest.raises(TopologyError):
        topo.connect("a", "ghost", units.gbps(1), 10)


def test_mac_and_ip_allocation_unique(sim):
    topo = Topology(sim)
    macs = {topo.allocate_mac() for _ in range(100)}
    ips = {topo.allocate_ip() for _ in range(100)}
    assert len(macs) == 100
    assert len(ips) == 100


def test_port_names_derived_and_deduplicated(sim):
    topo = Topology(sim)
    a = topo.add_host("a")
    b = topo.add_host("b")
    topo.connect(a, b, units.gbps(1), 10)
    topo.connect(a, b, units.gbps(1), 10)  # parallel link
    assert "to_b" in a.ports and "to_b.2" in a.ports


def test_host_ports_get_deep_queues_switch_ports_shallow(sim):
    topo = Topology(sim)
    a = topo.add_host("a")
    r = topo.add_router("r")
    topo.connect(a, r, units.gbps(1), 10)
    assert a.ports["to_r"].queue.capacity_bytes == HOST_QUEUE_BYTES
    assert r.ports["to_a"].queue.capacity_bytes < HOST_QUEUE_BYTES


def test_path_prefers_lower_latency(sim):
    topo = Topology(sim)
    a = topo.add_host("a")
    b = topo.add_host("b")
    fast = topo.add_router("fast")
    slow = topo.add_router("slow")
    topo.connect(a, fast, units.gbps(1), 10)
    topo.connect(fast, b, units.gbps(1), 10)
    topo.connect(a, slow, units.gbps(1), units.milliseconds(10))
    topo.connect(slow, b, units.gbps(1), units.milliseconds(10))
    names = [n.name for n in topo.path(a, b)]
    assert names == ["a", "fast", "b"]


def test_install_routes_multi_hop_delivery(sim):
    topo = Topology(sim)
    a = topo.add_host("a")
    b = topo.add_host("b")
    r1 = topo.add_router("r1")
    r2 = topo.add_router("r2")
    topo.connect(a, r1, units.gbps(1), 10)
    topo.connect(r1, r2, units.gbps(1), 10)
    topo.connect(r2, b, units.gbps(1), 10)
    topo.install_routes()
    got = []
    b.register_l3_protocol(IpProto.UDP, got.append)
    assert a.send_ip(b.ip, IpProto.UDP, payload_size=1)
    sim.run()
    assert len(got) == 1


def test_routes_transparent_through_l2_switch(sim):
    topo = Topology(sim)
    a = topo.add_host("a")
    b = topo.add_host("b")
    r = topo.add_router("r")
    sw = topo.add_switch("sw")
    topo.connect(a, sw, units.gbps(1), 10)
    topo.connect(sw, r, units.gbps(1), 10)
    topo.connect(r, b, units.gbps(1), 10)
    topo.install_routes()
    got = []
    b.register_l3_protocol(IpProto.UDP, got.append)
    assert a.send_ip(b.ip, IpProto.UDP, payload_size=1)
    sim.run()
    assert len(got) == 1


def test_link_between(sim):
    topo = Topology(sim)
    a = topo.add_host("a")
    b = topo.add_host("b")
    link = topo.connect(a, b, units.gbps(1), 10)
    assert topo.link_between("a", "b") is link
    c = topo.add_host("c")
    with pytest.raises(TopologyError):
        topo.link_between(a, c)


def test_parallel_links_route_and_weigh_by_the_lowest_latency_link(sim):
    """One link of a parallel pair carries the pair: weight, egress, lookup."""
    topo = Topology(sim)
    a = topo.add_host("a")
    b = topo.add_host("b")
    r = topo.add_router("r")
    detour = topo.add_router("detour")
    fast = topo.connect(a, r, units.gbps(1), 10)
    topo.connect(a, r, units.gbps(1), units.milliseconds(5))  # slower twin
    topo.connect(r, b, units.gbps(1), 10)
    topo.connect(a, detour, units.gbps(1), units.milliseconds(1))
    topo.connect(detour, b, units.gbps(1), units.milliseconds(1))
    topo.install_routes()
    assert topo.link_between("a", "r") is fast
    assert topo.link_between("r", "a") is fast
    # Weighed by the 10 ns link, a-r-b beats the 2 ms detour...
    assert [n.name for n in topo.path(a, b)] == ["a", "r", "b"]
    # ...and egress is on that same link, in both directions.
    assert a.routes.lookup(b.ip).port_name == "to_r"
    assert r.routes.lookup(a.ip).port_name == "to_a"
    assert a.ports["to_r"].link is fast and r.ports["to_a"].link is fast


def test_parallel_links_tie_goes_to_the_first_connected(sim):
    topo = Topology(sim)
    a = topo.add_host("a")
    b = topo.add_host("b")
    first = topo.connect(a, b, units.gbps(1), 10)
    topo.connect(a, b, units.gbps(1), 10)
    assert topo.link_between(a, b) is first  # a tie does not replace it
    faster = topo.connect(b, a, units.gbps(1), 5)
    assert topo.link_between(a, b) is faster  # strictly lower latency does


def test_disconnected_pair_raises_a_typed_error_naming_both_nodes(sim):
    topo = Topology(sim)
    a = topo.add_host("a")
    b = topo.add_host("b")
    topo.add_host("island")
    topo.connect(a, b, units.gbps(1), 10)
    with pytest.raises(TopologyError, match="island.*a|a.*island"):
        topo.path("island", a)
    with pytest.raises(TopologyError, match="a.*island"):
        topo.install_routes()
    with pytest.raises(TopologyError, match="ghost"):
        topo.path("a", "ghost")


def test_connect_and_add_drop_the_cached_trees(sim):
    topo = Topology(sim)
    a = topo.add_host("a")
    b = topo.add_host("b")
    slow = topo.add_router("slow")
    topo.connect(a, slow, units.gbps(1), 1000)
    topo.connect(slow, b, units.gbps(1), 1000)
    assert [n.name for n in topo.path(a, b)] == ["a", "slow", "b"]
    fast = topo.add_router("fast")
    topo.connect(a, fast, units.gbps(1), 10)
    topo.connect(fast, b, units.gbps(1), 10)
    assert [n.name for n in topo.path(a, b)] == ["a", "fast", "b"]


def test_addressable_element_gets_routes(sim):
    """Elements with their own IP (smartNIC buffers) are route targets."""
    from repro.dataplane import AlveoNic

    topo = Topology(sim)
    a = topo.add_host("a")
    b = topo.add_host("b")
    nic = topo.add(AlveoNic.u280(sim, "nic", mac=topo.allocate_mac(), ip="10.5.0.9"))
    topo.connect(a, nic, units.gbps(1), 10)
    topo.connect(nic, b, units.gbps(1), 10)
    topo.install_routes()
    assert a.routes.lookup("10.5.0.9") is not None
    assert nic.routes.lookup(a.ip) is not None
    assert nic.routes.lookup(b.ip) is not None
