"""The parametric leaf-spine builder (the incast grid's substrate)."""

import pytest

from repro.baselines.udp import UdpStack
from repro.netsim import (
    DropTailQueue,
    LeafSpineSpec,
    RedQueue,
    Simulator,
    TopologyError,
    build_leaf_spine,
)


def build(spec=None, factory=None):
    return build_leaf_spine(Simulator(seed=7), spec, switch_queue_factory=factory)


def all_hosts(fabric):
    return [host for leaf in fabric.hosts for host in leaf]


class TestStructure:
    def test_default_fabric_shape(self):
        fabric = build()
        assert len(fabric.leaves) == 2
        assert len(fabric.spines) == 2
        assert len(all_hosts(fabric)) == 8
        assert fabric.receiver.name == "h0_0"
        assert fabric.host(1, 3).name == "h1_3"

    def test_parametric_shape(self):
        fabric = build(LeafSpineSpec(leaves=3, spines=1, hosts_per_leaf=2))
        assert len(fabric.leaves) == 3
        assert len(fabric.spines) == 1
        assert len(all_hosts(fabric)) == 6

    def test_every_host_gets_a_distinct_ip(self):
        fabric = build()
        ips = {host.ip for host in all_hosts(fabric)}
        assert len(ips) == len(all_hosts(fabric))

    def test_spec_validation(self):
        with pytest.raises(TopologyError):
            LeafSpineSpec(leaves=0)
        with pytest.raises(TopologyError):
            LeafSpineSpec(hosts_per_leaf=0)


class TestSwitchQueues:
    def test_factory_covers_switch_ports_only(self):
        made = []

        def factory():
            queue = RedQueue(100_000, stream=None)
            made.append(queue)
            return queue

        fabric = build(factory=factory)
        # One per leaf->host downlink (8) + both ends of every
        # leaf<->spine link (2 * 2 * 2 = 8).
        assert len(made) == 16
        # The fan-in port queue is one of them; host egress is not.
        assert fabric.receiver_port_queue() in made
        for host in all_hosts(fabric):
            port = next(iter(host.ports.values()))
            assert port.queue not in made
            assert isinstance(port.queue, DropTailQueue)

    def test_no_factory_leaves_switch_ports_on_the_stock_fifo(self):
        fabric = build()
        assert isinstance(fabric.receiver_port_queue(), DropTailQueue)


class TestBottleneck:
    def test_symmetric_by_default(self):
        fabric = build()
        link = fabric.topology.link_between("h0_0", "leaf0")
        assert link.rate_bps == fabric.spec.edge_rate_bps

    def test_asym_narrows_only_the_receiver_edge(self):
        spec = LeafSpineSpec(bottleneck_rate_bps=2_500_000_000)
        fabric = build(spec)
        narrow = fabric.topology.link_between("h0_0", "leaf0")
        wide = fabric.topology.link_between("h0_1", "leaf0")
        remote = fabric.topology.link_between("h1_0", "leaf1")
        assert narrow.rate_bps == 2_500_000_000
        assert wide.rate_bps == spec.edge_rate_bps
        assert remote.rate_bps == spec.edge_rate_bps


class TestRouting:
    def test_cross_leaf_delivery(self):
        sim = Simulator(seed=7)
        fabric = build_leaf_spine(sim)
        receiver, sender = fabric.receiver, fabric.host(1, 0)
        got = []
        UdpStack(receiver).bind(9000, lambda packet, sock: got.append(packet))
        sock = UdpStack(sender).bind(9001, lambda packet, sock: None)
        sock.send_to(receiver.ip, 9000, 1200)
        sim.run(until_ns=1_000_000)
        assert len(got) == 1

    def test_same_leaf_delivery_skips_the_fabric(self):
        sim = Simulator(seed=7)
        fabric = build_leaf_spine(sim)
        path = fabric.topology.path(fabric.host(0, 1), fabric.receiver)
        names = [node.name for node in path]
        assert names == ["h0_1", "leaf0", "h0_0"]

    def test_cross_leaf_path_crosses_one_spine(self):
        fabric = build()
        path = fabric.topology.path(fabric.host(1, 0), fabric.receiver)
        names = [node.name for node in path]
        assert names[0] == "h1_0" and names[-1] == "h0_0"
        assert sum(1 for name in names if name.startswith("spine")) == 1
