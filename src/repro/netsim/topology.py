"""Topology builder.

Wires nodes with links, allocates MAC/IP addresses, and installs static
routes along lowest-latency paths, read off one shortest-path tree per
destination. Pure L2 switches are transparent to routing: a route's
next-hop MAC is the next *L3* element past any chain of switches.

This is the substrate every experiment topology (Figs. 1-4 of the
paper) is assembled from; the reference topologies themselves live in
:mod:`repro.wan.reference` and :mod:`repro.dataplane.pilot`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable

from .engine import Simulator
from .host import Host
from .link import HOST_QUEUE_BYTES, Link, Port
from .loss import LossModel
from .node import Node
from .queues import QueueDiscipline
from .switch import EthernetSwitch, IpRouter


class TopologyError(ValueError):
    """Raised for inconsistent topology construction."""


class Topology:
    """A collection of nodes and links with automatic addressing/routing."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.nodes: dict[str, Node] = {}
        self.links: list[Link] = []
        # node → neighbour → (weight, egress port), neighbours in connect
        # order; of parallel links the lowest-latency one (first on a tie)
        # stands for the pair.
        self._adjacency: dict[str, dict[str, tuple[int, Port]]] = {}
        # destination → node → next hop toward it; add()/connect() drop them.
        self._trees: dict[str, dict[str, str]] = {}
        self._mac_counter = itertools.count(1)
        self._ip_counter = itertools.count(1)

    # -- node construction --------------------------------------------------

    def add(self, node: Node) -> Node:
        """Register an externally-constructed node (e.g. a Tofino model)."""
        if node.name in self.nodes:
            raise TopologyError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        self._adjacency[node.name] = {}
        self._trees.clear()
        return node

    def add_host(self, name: str, ip: str | None = None) -> Host:
        """Create and register a host; allocates an IP when none is given."""
        host = Host(self.sim, name, ip=ip or self.allocate_ip(), mac=self.allocate_mac())
        self.add(host)
        return host

    def add_switch(self, name: str) -> EthernetSwitch:
        """Create and register a transparent L2 learning switch."""
        switch = EthernetSwitch(self.sim, name)
        self.add(switch)
        return switch

    def add_router(self, name: str) -> IpRouter:
        """Create and register a static-route IPv4 router."""
        router = IpRouter(self.sim, name, mac=self.allocate_mac())
        self.add(router)
        return router

    def allocate_mac(self) -> str:
        """Return a fresh locally-administered MAC address."""
        n = next(self._mac_counter)
        return f"02:00:00:{(n >> 16) & 0xFF:02x}:{(n >> 8) & 0xFF:02x}:{n & 0xFF:02x}"

    def allocate_ip(self) -> str:
        """Return a fresh address from the 10.200/16 auto-assignment pool."""
        n = next(self._ip_counter)
        if n > 65_000:
            raise TopologyError("auto IP pool exhausted")
        return f"10.200.{(n >> 8) & 0xFF}.{n & 0xFF}"

    # -- links ----------------------------------------------------------------

    def connect(
        self,
        a: Node | str,
        b: Node | str,
        rate_bps: int,
        delay_ns: int,
        mtu_bytes: int = 9000,
        loss_rate: float = 0.0,
        bit_error_rate: float = 0.0,
        queue_factory: Callable[[], QueueDiscipline] | None = None,
        loss_model: "LossModel | None" = None,
        queue_factory_a: Callable[[], QueueDiscipline] | None = None,
        queue_factory_b: Callable[[], QueueDiscipline] | None = None,
    ) -> Link:
        """Create a full-duplex link between two registered nodes.

        ``queue_factory`` applies to both ends; ``queue_factory_a`` /
        ``queue_factory_b`` override it per end (``a``'s egress port /
        ``b``'s egress port) — used to put an AQM on a switch port while
        the attached host keeps its plain RAM-backed FIFO.
        """
        node_a = self._resolve(a)
        node_b = self._resolve(b)

        def default_queue(
            node: Node,
            specific: Callable[[], QueueDiscipline] | None,
        ) -> QueueDiscipline | None:
            if specific is not None:
                return specific()
            if queue_factory is not None:
                return queue_factory()
            if isinstance(node, Host):
                # Hosts buffer their own egress in RAM; see link module.
                from .queues import DropTailQueue

                return DropTailQueue(HOST_QUEUE_BYTES)
            return None

        port_a = node_a.add_port(
            self._port_name(node_a, node_b), queue=default_queue(node_a, queue_factory_a)
        )
        port_b = node_b.add_port(
            self._port_name(node_b, node_a), queue=default_queue(node_b, queue_factory_b)
        )
        # A parallel link takes its port's suffix (a<->b.2): its own loss stream and label.
        suffix = port_a.name[len(f"to_{node_b.name}") :]
        link = Link(
            self.sim,
            port_a,
            port_b,
            name=f"{node_a.name}<->{node_b.name}{suffix}",
            rate_bps=rate_bps,
            propagation_delay_ns=delay_ns,
            mtu_bytes=mtu_bytes,
            loss_rate=loss_rate,
            bit_error_rate=bit_error_rate,
            loss_model=loss_model,
        )
        self.links.append(link)
        # Weight paths by latency so "shortest" means lowest-delay.
        weight = delay_ns + 1
        for port, peer in ((port_a, node_b), (port_b, node_a)):
            toward = self._adjacency[port.node.name]
            known = toward.get(peer.name)
            if known is None or weight < known[0]:
                toward[peer.name] = (weight, port)
        self._trees.clear()
        return link

    def _resolve(self, node: Node | str) -> Node:
        if isinstance(node, str):
            if node not in self.nodes:
                raise TopologyError(f"unknown node {node!r}")
            return self.nodes[node]
        if node.name not in self.nodes:
            raise TopologyError(f"node {node.name!r} was never registered")
        return node

    @staticmethod
    def _port_name(node: Node, peer: Node) -> str:
        base = f"to_{peer.name}"
        name = base
        suffix = 1
        while name in node.ports:
            suffix += 1
            name = f"{base}.{suffix}"
        return name

    # -- routing ----------------------------------------------------------------

    def _tree(self, dst: str) -> dict[str, str]:
        """Next hop toward ``dst`` from every node that reaches it.

        The one definition of "the path" (DESIGN §7): Dijkstra from the
        destination, neighbours in connect order, and on a tie the parent
        found first stays.
        """
        tree = self._trees.get(dst)
        if tree is None:
            tree = self._trees[dst] = {}
            distance = {dst: 0}
            heap = [(0, 0, dst)]
            pushes = itertools.count(1)
            while heap:
                so_far, _, name = heappop(heap)
                if so_far > distance[name]:
                    continue
                for neighbor, (weight, _port) in self._adjacency[name].items():
                    candidate = so_far + weight
                    if neighbor not in distance or candidate < distance[neighbor]:
                        distance[neighbor] = candidate
                        tree[neighbor] = name
                        heappush(heap, (candidate, next(pushes), neighbor))
        return tree

    def path(self, src: Node | str, dst: Node | str) -> list[Node]:
        """Lowest-latency path between two nodes, as node objects."""
        node, dst_node = self._resolve(src), self._resolve(dst)
        tree = self._tree(dst_node.name)
        path = [node]
        while node is not dst_node:
            hop = tree.get(node.name)
            if hop is None:
                raise TopologyError(f"no path from {path[0].name} to {dst_node.name}")
            node = self.nodes[hop]
            path.append(node)
        return path

    def install_routes(self) -> None:
        """Install routes between every pair of addressable nodes.

        Addressable nodes are hosts and any L3 element carrying its own
        IP address (e.g. smartNICs that host retransmission buffers and
        answer NAKs). For each ordered pair ``(src, dst)``, a ``dst/32``
        route is written, once, at every L3 element on the lowest-latency
        path: the egress port points at the immediate next node, the
        next-hop MAC at the next *L3* node (L2 switches in between are
        transparent). A walk from ``src`` up ``dst``'s tree stops at the
        first node an earlier walk passed: the rest of its path is written.
        """
        # L3 nodes route IP; L2 switches are transparent to it.
        l3 = {name: hasattr(n, "add_route") and hasattr(n, "mac") for name, n in self.nodes.items()}
        addressable = [
            n for n in self.nodes.values() if l3[n.name] and getattr(n, "ip", None) is not None
        ]
        for dst in addressable:
            prefixes = [f"{ip}/32" for ip in sorted(getattr(dst, "addresses", None) or {dst.ip})]
            tree = self._tree(dst.name)
            # Walked node → the nearest L3 node toward dst, itself included.
            gateway = {dst.name: dst}
            for src in addressable:
                walk, name = [], src.name
                while name not in gateway:
                    walk.append(name)
                    name = tree.get(name)
                    if name is None:
                        raise TopologyError(f"no path from {src.name} to {dst.name}")
                for name in reversed(walk):
                    hop = tree[name]
                    if not l3[name]:
                        gateway[name] = gateway[hop]
                        continue
                    node = gateway[name] = self.nodes[name]
                    port_name = self._adjacency[name][hop][1].name
                    next_hop_mac = _mac_of(gateway[hop])
                    for prefix in prefixes:
                        node.add_route(prefix, port_name, next_hop_mac)

    def _port_toward(self, node: Node, neighbor: Node) -> Port:
        entry = self._adjacency[node.name].get(neighbor.name)
        if entry is None:
            raise TopologyError(f"no link between {node.name} and {neighbor.name}")
        return entry[1]

    def link_between(self, a: Node | str, b: Node | str) -> Link:
        """The link joining two nodes; of parallel links, the one routes use
        (lowest latency, first connected on a tie)."""
        return self._port_toward(self._resolve(a), self._resolve(b)).link


# ---------------------------------------------------------------------------
# Leaf-spine fabric (the incast / Fig. 2 head-to-head substrate)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LeafSpineSpec:
    """Parameters of a two-tier leaf-spine fabric.

    ``bottleneck_rate_bps`` models an asymmetric bottleneck: when set,
    the *first host of the first leaf* (the canonical incast receiver,
    :attr:`LeafSpine.receiver`) gets a slower edge link than everyone
    else, deepening the fan-in queue at its leaf port. ``None`` keeps
    the fabric symmetric.
    """

    leaves: int = 2
    spines: int = 2
    hosts_per_leaf: int = 4
    edge_rate_bps: int = 10_000_000_000
    fabric_rate_bps: int = 40_000_000_000
    edge_delay_ns: int = 1_000
    fabric_delay_ns: int = 5_000
    mtu_bytes: int = 9000
    bottleneck_rate_bps: int | None = None

    def __post_init__(self) -> None:
        if self.leaves < 1 or self.spines < 1 or self.hosts_per_leaf < 1:
            raise TopologyError("leaf-spine needs >= 1 leaf, spine, and host/leaf")


class LeafSpine:
    """A built leaf-spine fabric: topology plus structured node access."""

    def __init__(
        self,
        topology: Topology,
        leaves: list[IpRouter],
        spines: list[IpRouter],
        hosts: list[list[Host]],
        spec: LeafSpineSpec,
    ) -> None:
        self.topology = topology
        self.leaves = leaves
        self.spines = spines
        self.hosts = hosts
        self.spec = spec

    @property
    def receiver(self) -> Host:
        """The canonical incast sink: first host of the first leaf."""
        return self.hosts[0][0]

    def host(self, leaf: int, index: int) -> Host:
        return self.hosts[leaf][index]

    def receiver_port_queue(self) -> QueueDiscipline | None:
        """The fan-in queue: leaf 0's egress port toward the receiver."""
        leaf = self.leaves[0]
        return self.topology._port_toward(leaf, self.receiver).queue


def build_leaf_spine(
    sim: Simulator,
    spec: LeafSpineSpec | None = None,
    switch_queue_factory: Callable[[], QueueDiscipline] | None = None,
) -> LeafSpine:
    """Build a leaf-spine fabric with per-port switch queues.

    ``switch_queue_factory`` is called once per *switch-side* port end
    (leaf→host downlinks and every leaf↔spine port) — pass a seeded
    :class:`~repro.netsim.queues.RedQueue` factory for an ECN fabric.
    Host egress keeps the default RAM-backed FIFO. Routes are installed
    before returning.
    """
    spec = spec or LeafSpineSpec()
    topo = Topology(sim)
    leaves = [topo.add_router(f"leaf{i}") for i in range(spec.leaves)]
    spines = [topo.add_router(f"spine{i}") for i in range(spec.spines)]
    hosts: list[list[Host]] = []
    for li, leaf in enumerate(leaves):
        leaf_hosts: list[Host] = []
        for hi in range(spec.hosts_per_leaf):
            host = topo.add_host(f"h{li}_{hi}")
            rate = spec.edge_rate_bps
            if li == 0 and hi == 0 and spec.bottleneck_rate_bps is not None:
                rate = spec.bottleneck_rate_bps
            topo.connect(
                host,
                leaf,
                rate_bps=rate,
                delay_ns=spec.edge_delay_ns,
                mtu_bytes=spec.mtu_bytes,
                queue_factory_b=switch_queue_factory,
            )
            leaf_hosts.append(host)
        hosts.append(leaf_hosts)
    for leaf in leaves:
        for spine in spines:
            topo.connect(
                leaf,
                spine,
                rate_bps=spec.fabric_rate_bps,
                delay_ns=spec.fabric_delay_ns,
                mtu_bytes=spec.mtu_bytes,
                queue_factory_a=switch_queue_factory,
                queue_factory_b=switch_queue_factory,
            )
    topo.install_routes()
    return LeafSpine(topo, leaves, spines, hosts, spec)


def _mac_of(node: Node) -> str:
    mac = getattr(node, "mac", None)
    if mac is None:
        raise TopologyError(f"{node.name} has no MAC address")
    return mac
