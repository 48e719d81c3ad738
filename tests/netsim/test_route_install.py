"""Route installation against three oracles.

``Topology.install_routes`` walks each destination's shortest-path tree
once. It is checked three ways:

- **golden tables** (``golden_routes.json``): every shipped builder's
  tables in table order and ``topo.path`` for every ordered pair, as the
  installer before this one wrote them. They pin the tie rule, which the
  other two cannot see;
- **the per-pair installer it replaced**, kept as
  ``reference_install_routes``: one path per ordered pair of addressable
  nodes, a route at every L3 node on it, the last writer winning;
- **a stdlib shortest-path reference** (Floyd–Warshall with path
  reconstruction) on random graphs whose shortest paths are unique, the
  per-pair installer walking its paths.
"""

from __future__ import annotations

import functools
import ipaddress
import itertools
import json
import random
from pathlib import Path
from typing import Callable

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

# -- the references ---------------------------------------------------------------


def _is_l3(node) -> bool:
    return hasattr(node, "add_route") and hasattr(node, "mac")


def reference_install_routes(
    topo: Topology, path_of: Callable[[str, str], list[str]]
) -> dict[str, set]:
    """node name → {(network, port_name, next_hop_mac)}: a route for each
    ordered pair at every L3 node on ``path_of(src, dst)``, the installer
    before the tree walk (last writer wins)."""
    tables: dict[str, dict] = {name: {} for name in topo.nodes}
    addressable = [
        n for n in topo.nodes.values() if _is_l3(n) and getattr(n, "ip", None) is not None
    ]
    for src in addressable:
        for dst in addressable:
            if src is dst:
                continue
            for dst_ip in sorted(getattr(dst, "addresses", None) or {dst.ip}):
                path = [topo.nodes[n] for n in path_of(src.name, dst.name)]
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


def shortest_paths(topo: Topology) -> dict[tuple[str, str], list[str]]:
    """Floyd–Warshall over link latencies (+1 ns a hop, as the topology
    weighs them), with path reconstruction: ``(src, dst)`` → node names,
    for every reachable ordered pair. Exact only where no two paths tie."""
    names = list(topo.nodes)
    inf = float("inf")
    dist = {(a, b): 0 if a == b else inf for a in names for b in names}
    step = {(a, a): a for a in names}
    for link in topo.links:
        a, b = (end.node.name for end in link.ends)
        weight = link.propagation_delay_ns + 1
        for u, v in ((a, b), (b, a)):
            if weight < dist[u, v]:
                dist[u, v], step[u, v] = weight, v
    for k in names:
        for i in names:
            for j in names:
                if dist[i, k] + dist[k, j] < dist[i, j]:
                    dist[i, j], step[i, j] = dist[i, k] + dist[k, j], step[i, k]
    paths = {}
    for (src, dst) in step:
        path = [src]
        while path[-1] != dst:
            path.append(step[path[-1], dst])
        paths[src, dst] = path
    return paths


def installed_routes(topo: Topology) -> dict[str, set]:
    return {
        name: {(r.network, r.port_name, r.next_hop_mac) for r in getattr(node, "routes", ())}
        for name, node in topo.nodes.items()
    }


def assert_matches_reference(topo: Topology) -> None:
    """The tables are the per-pair installer's over the topology's own paths."""
    installed = installed_routes(topo)
    assert sum(map(len, installed.values())) > 0
    path_of = lambda src, dst: [n.name for n in topo.path(src, dst)]
    assert installed == reference_install_routes(topo, path_of)


# -- every shipped builder ----------------------------------------------------


def _incast_fabric(senders: int, symmetric: bool) -> Topology:
    seen = []
    run_incast(
        IncastConfig(senders=senders, symmetric=symmetric, work_window_ns=50_000),
        instrument=seen.append,
    )
    return seen[0].topology


def _esnet_with_site() -> Topology:
    backbone = build_esnet(Simulator(seed=7))
    backbone.attach_site("NEWLAB", "DENV", tail_km=40)  # re-installs every route
    return backbone.topology


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
    "esnet-attach-site": lambda: _esnet_with_site(),
    "wan-today": lambda: TodayScenario(Simulator(seed=7)).topology,
    "wan-mmt": lambda: MultimodalScenario(Simulator(seed=7)).topology,
    "supernova-today": lambda: SupernovaScenario("today").topology,
    "supernova-mmt": lambda: SupernovaScenario("mmt").topology,
}


@pytest.mark.parametrize("name", BUILDERS)
def test_shipped_topology_routes_match_the_reference_installer(name):
    assert_matches_reference(BUILDERS[name]())


# -- golden tables: every shipped builder's routes and paths, pinned -----------

GOLDEN = Path(__file__).with_name("golden_routes.json")


@functools.cache
def golden_tables() -> dict:
    return json.loads(GOLDEN.read_text())


def snapshot(topo: Topology) -> dict:
    """What install_routes and path() decide, in a compact JSON shape.

    ``routes``: node → its table in iteration order, as runs of
    ``[port, next-hop MAC, destination, ...]`` (a destination is the
    address of a ``/32`` route, else the full prefix). ``next_hop``:
    destination → for each node in ``nodes`` order, the index of the next
    node on ``topo.path(node, destination)`` (its own index at the
    destination, ``null`` where no path exists).
    """
    names = list(topo.nodes)
    routes = {}
    for name, node in topo.nodes.items():
        runs: list[list[str]] = []
        for route in getattr(node, "routes", ()):
            prefix = str(route.network).removesuffix("/32")
            if runs and runs[-1][:2] == [route.port_name, route.next_hop_mac]:
                runs[-1].append(prefix)
            else:
                runs.append([route.port_name, route.next_hop_mac, prefix])
        if runs:
            routes[name] = runs
    next_hop = {}
    for dst in names:
        row: list[int | None] = []
        for src in names:
            try:
                path = topo.path(src, dst)
            except TopologyError:
                row.append(None)
                continue
            row.append(names.index(path[1].name) if len(path) > 1 else names.index(src))
        next_hop[dst] = row
    return {"nodes": names, "routes": routes, "next_hop": next_hop}


def write_golden() -> None:
    """Regenerate the golden file; only for a deliberate change of routes."""
    lines = ["{"]
    for i, (name, build) in enumerate(BUILDERS.items()):
        snap = snapshot(build())
        lines.append(f" {json.dumps(name)}: {{")
        lines.append(f"  \"nodes\": {json.dumps(snap['nodes'])},")
        for section in ("routes", "next_hop"):
            entries = [f"   {json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
                       for k, v in snap[section].items()]
            comma = "," if section == "routes" else ""
            lines.append(f"  {json.dumps(section)}: {{\n" + ",\n".join(entries) + f"\n  }}{comma}")
        lines.append(" }" + ("," if i < len(BUILDERS) - 1 else ""))
    lines.append("}")
    GOLDEN.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("name", BUILDERS)
def test_shipped_topology_routes_and_paths_match_the_golden_tables(name):
    """The tables and paths every builder got when the tie rule was set:
    Dijkstra from the destination, neighbours in connect order, the first
    parent found kept on a tie. A changed tie rule moves leaf-spine's
    spine choice, which no oracle with unique shortest paths can see."""
    golden = golden_tables()[name]
    topo = BUILDERS[name]()
    assert snapshot(topo) == golden
    names = golden["nodes"]
    for (s, src), (d, dst) in itertools.permutations(enumerate(names), 2):
        hop = golden["next_hop"][dst][s]
        if hop is None:  # supernova-mmt leaves its WAN router unwired
            with pytest.raises(TopologyError, match=f"no path from {src} to {dst}"):
                topo.path(src, dst)
            continue
        expected = [src]
        while hop != d:
            expected.append(names[hop])
            hop = golden["next_hop"][dst][hop]
        assert [n.name for n in topo.path(src, dst)] == [*expected, dst]


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
def test_random_graph_routes_and_paths_match_the_stdlib_reference(graph, data):
    """Hosts, routers and transparent L2 switches on a graph whose
    shortest paths are unique: ``topo.path`` is the reference's path for
    every ordered pair, and the tables are the per-pair installer's
    walking those paths."""
    n, edges, delays = graph
    routers = data.draw(st.sets(st.integers(0, n - 1), max_size=n - 2))
    switches = data.draw(st.sets(st.sampled_from(sorted(routers)))) if routers else set()
    topo = Topology(Simulator(seed=1))
    for i in range(n):
        add = topo.add_switch if i in switches else topo.add_router if i in routers else topo.add_host
        add(f"n{i}")
    for (a, b), delay in zip(edges, delays):
        topo.connect(f"n{a}", f"n{b}", units.gbps(10), delay)
    topo.install_routes()
    paths = shortest_paths(topo)
    assert len(paths) == n * n  # connected
    for (src, dst), path in paths.items():
        assert [node.name for node in topo.path(src, dst)] == path
    installed = installed_routes(topo)
    assert sum(map(len, installed.values())) > 0
    assert installed == reference_install_routes(topo, lambda src, dst: paths[src, dst])


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


if __name__ == "__main__":
    write_golden()
