"""Route installation against the installer it replaced.

``Topology.install_routes`` reads one shortest-path tree per
destination. The installer before it ran one ``networkx`` shortest path
per *ordered pair* of addressable nodes and let the last writer win; it
is kept here, as ``reference_install_routes``, and every shipped
topology must get the same tables from both. ``networkx`` is a test
oracle only — nothing under ``src/`` imports it.
"""

from __future__ import annotations

import ipaddress
import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane import PilotConfig, PilotTestbed
from repro.fleet.farm import FarmConfig, ReceiverFarm
from repro.integration.incast import IncastConfig, run_incast
from repro.integration.supernova import SupernovaScenario
from repro.netsim import RoutingTable, Simulator, Topology, TopologyError, units
from repro.netsim.topology import LeafSpineSpec, build_leaf_spine
from repro.wan.esnet import build_esnet
from repro.wan.scenarios import MultimodalScenario, TodayScenario

# -- the reference: the parent commit's installer and table -------------------


def reference_graph(topo: Topology) -> nx.Graph:
    graph = nx.Graph()
    graph.add_nodes_from(topo.nodes)
    for link in topo.links:
        a, b = (end.node.name for end in link.ends)
        graph.add_edge(a, b, weight=link.propagation_delay_ns + 1)
    return graph


def _is_l3(node) -> bool:
    return hasattr(node, "add_route") and hasattr(node, "mac")


def reference_install_routes(topo: Topology) -> dict[str, set]:
    """node name → {(network, port_name, next_hop_mac)}, the parent's way."""
    graph = reference_graph(topo)
    tables: dict[str, dict] = {name: {} for name in topo.nodes}
    addressable = [
        n for n in topo.nodes.values() if _is_l3(n) and getattr(n, "ip", None) is not None
    ]
    for src in addressable:
        for dst in addressable:
            if src is dst:
                continue
            for dst_ip in sorted(getattr(dst, "addresses", None) or {dst.ip}):
                names = nx.shortest_path(graph, src.name, dst.name, weight="weight")
                path = [topo.nodes[n] for n in names]
                for i, node in enumerate(path[:-1]):
                    if not _is_l3(node):
                        continue
                    next_l3 = next(c for c in path[i + 1 :] if _is_l3(c))
                    port_name = next(
                        name
                        for name, port in node.ports.items()
                        if port.peer is not None and port.peer.node is path[i + 1]
                    )
                    network = ipaddress.ip_network(f"{dst_ip}/32")
                    tables[node.name][network] = (network, port_name, next_l3.mac)
    return {name: set(table.values()) for name, table in tables.items()}


def installed_routes(topo: Topology) -> dict[str, set]:
    return {
        name: {(r.network, r.port_name, r.next_hop_mac) for r in getattr(node, "routes", ())}
        for name, node in topo.nodes.items()
    }


def assert_matches_reference(topo: Topology) -> None:
    installed = installed_routes(topo)
    assert sum(map(len, installed.values())) > 0
    assert installed == reference_install_routes(topo)
    graph = reference_graph(topo)
    for src, dst in itertools.permutations(topo.nodes, 2):
        if nx.has_path(graph, src, dst):
            expected = nx.shortest_path(graph, src, dst, weight="weight")
            assert [n.name for n in topo.path(src, dst)] == expected
        else:  # supernova-mmt leaves its WAN router unwired
            with pytest.raises(TopologyError, match=f"{src}.*{dst}"):
                topo.path(src, dst)


# -- every shipped builder ----------------------------------------------------


def _incast_fabric(senders: int, symmetric: bool) -> Topology:
    seen = []
    run_incast(
        IncastConfig(senders=senders, symmetric=symmetric, work_window_ns=50_000),
        instrument=seen.append,
    )
    return seen[0].topology


BUILDERS = {
    "pilot": lambda: PilotTestbed(Simulator(seed=7), PilotConfig()).topology,
    "pilot-3-flows": lambda: PilotTestbed(
        Simulator(seed=7), PilotConfig(flows=3)
    ).topology,
    **{
        f"farm-{n}": lambda n=n: ReceiverFarm(
            Simulator(seed=7), FarmConfig(nodes=n, flows=2 * n)
        ).topology
        for n in (3, 8, 64)
    },
    **{
        f"leaf-spine-{leaves}x{spines}": lambda leaves=leaves, spines=spines: build_leaf_spine(
            Simulator(seed=7), LeafSpineSpec(leaves=leaves, spines=spines, hosts_per_leaf=3)
        ).topology
        for leaves, spines in ((1, 1), (2, 2), (2, 3), (3, 2), (4, 4))
    },
    **{
        f"incast-n{n}-{'sym' if sym else 'asym'}": lambda n=n, sym=sym: _incast_fabric(n, sym)
        for n in (4, 8, 16)
        for sym in (True, False)
    },
    "esnet": lambda: build_esnet(Simulator(seed=7)).topology,
    "wan-today": lambda: TodayScenario(Simulator(seed=7)).topology,
    "wan-mmt": lambda: MultimodalScenario(Simulator(seed=7)).topology,
    "supernova-today": lambda: SupernovaScenario("today").topology,
    "supernova-mmt": lambda: SupernovaScenario("mmt").topology,
}


@pytest.mark.parametrize("name", BUILDERS)
def test_shipped_topology_routes_match_the_reference_installer(name):
    assert_matches_reference(BUILDERS[name]())


def test_esnet_reinstall_after_attach_site_matches_the_reference():
    backbone = build_esnet(Simulator(seed=7))
    backbone.attach_site("NEWLAB", "DENV", tail_km=40)
    assert_matches_reference(backbone.topology)
    # attach_site already re-installed; once more is idempotent.
    before = installed_routes(backbone.topology)
    backbone.topology.install_routes()
    assert installed_routes(backbone.topology) == before


# -- random graphs with unique shortest paths ---------------------------------


@st.composite
def connected_graphs(draw):
    """(n, edges, weights): a random spanning tree plus extra edges.

    Delays are distinct powers of two, so every subset of links has a
    different total and no two paths tie: the shortest path is unique
    and any correct algorithm must return it.
    """
    n = draw(st.integers(min_value=2, max_value=9))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    spare = [pair for pair in itertools.combinations(range(n), 2) if pair not in edges]
    edges += draw(st.lists(st.sampled_from(spare), unique=True, max_size=8)) if spare else []
    order = draw(st.permutations(range(len(edges))))
    return n, edges, [1 << (10 + k) for k in order]


@settings(max_examples=60, deadline=None)
@given(connected_graphs(), st.data())
def test_random_graph_routes_and_paths_match_networkx(graph, data):
    n, edges, delays = graph
    routers = data.draw(st.sets(st.integers(0, n - 1), max_size=n - 2))
    topo = Topology(Simulator(seed=1))
    for i in range(n):
        (topo.add_router if i in routers else topo.add_host)(f"n{i}")
    for (a, b), delay in zip(edges, delays):
        topo.connect(f"n{a}", f"n{b}", units.gbps(10), delay)
    topo.install_routes()
    assert_matches_reference(topo)


# -- RoutingTable against the list implementation it replaced -----------------


class ReferenceRoutingTable:
    """The parent's table: filter, append and re-sort on every add."""

    def __init__(self) -> None:
        self.routes: list[tuple] = []

    def add(self, prefix, port_name, next_hop_mac):
        network = ipaddress.ip_network(prefix, strict=False)
        self.routes = [r for r in self.routes if r[0] != network]
        self.routes.append((network, port_name, next_hop_mac))
        self.routes.sort(key=lambda r: r[0].prefixlen, reverse=True)

    def lookup(self, dst_ip):
        address = ipaddress.ip_address(dst_ip)
        return next((r for r in self.routes if address in r[0]), None)


@pytest.mark.parametrize("seed", range(20))
def test_routing_table_matches_the_list_model(seed):
    rng = random.Random(seed)
    table, model = RoutingTable(), ReferenceRoutingTable()

    def address():
        return f"10.{rng.randrange(2)}.{rng.randrange(3)}.{rng.randrange(4)}"

    for step in range(300):
        if rng.random() < 0.4:
            # Few distinct prefixes, host bits set: re-adds are common.
            prefix = f"{address()}/{rng.choice((0, 8, 15, 16, 24, 30, 32))}"
            table.add(prefix, f"p{step}", f"m{step}")
            model.add(prefix, f"p{step}", f"m{step}")
        else:
            dst = address()
            got, want = table.lookup(dst), model.lookup(dst)
            assert (got and (got.network, got.port_name, got.next_hop_mac)) == want
        assert len(table) == len(model.routes)
        if step % 25 == 0:
            assert [(r.network, r.port_name, r.next_hop_mac) for r in table] == model.routes
