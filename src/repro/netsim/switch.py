"""Plain (non-programmable) switches and routers.

:class:`EthernetSwitch` is a learning L2 switch — the commodity COTS
equipment DAQ networks are built from (paper §2). :class:`IpRouter`
forwards on longest-prefix-match routes and rewrites L2 addresses; WAN
segments are built from these. Programmable elements (Tofino, Alveo)
live in :mod:`repro.dataplane` and extend these with pipelines.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .headers import EthernetHeader, Ipv4Header
from .link import Port
from .node import Node
from .packet import Packet


class EthernetSwitch(Node):
    """Learning L2 switch: floods unknown destinations, learns sources."""

    BROADCAST = "ff:ff:ff:ff:ff:ff"

    def __init__(self, sim, name: str) -> None:
        super().__init__(sim, name)
        self.mac_table: dict[str, Port] = {}
        self.flooded = 0
        self.forwarded = 0
        self.dropped_no_l2 = 0

    def receive(self, packet: Packet, port: Port) -> None:
        eth = packet.find(EthernetHeader)
        if eth is None:
            self.dropped_no_l2 += 1
            return
        self.mac_table[eth.src] = port
        if eth.dst != self.BROADCAST and eth.dst in self.mac_table:
            out_port = self.mac_table[eth.dst]
            if out_port is not port:
                self.forwarded += 1
                out_port.send(packet)
            return
        self.flooded += 1
        for other in self.ports.values():
            if other is not port and other.link is not None:
                other.send(packet.copy())


@dataclass
class Route:
    """A routing table entry: prefix → (egress port, next-hop MAC)."""

    network: ipaddress.IPv4Network
    port_name: str
    next_hop_mac: str


@lru_cache(maxsize=65536)
def _parse_network(prefix: str) -> tuple[str, ipaddress.IPv4Network]:
    """Parse a prefix string once, for every table: the network and its text,
    the table's key (a ``str`` hashes in C, an ``IPv4Network`` in Python)."""
    network = ipaddress.ip_network(prefix, strict=False)
    return str(network), network


class RoutingTable:
    """Longest-prefix-match IPv4 routing table."""

    #: Bound on the per-table lookup memo (distinct destinations seen).
    _CACHE_MAX = 65536

    def __init__(self) -> None:
        self._routes: dict[str, Route] = {}  # canonical prefix → route, in (re-)add order
        # What __iter__ serves; derived on demand, dropped by add().
        self._by_length: list[Route] | None = None
        # dst string → winning Route (or None); routes are static while
        # traffic flows, so per-packet ipaddress parsing is pure waste.
        # Any table change clears the memo.
        self._cache: dict[str, Route | None] = {}

    def add(self, prefix: str, port_name: str, next_hop_mac: str) -> None:
        """Install a route for ``prefix`` (e.g. ``"10.1.0.0/16"``).

        Re-adding a prefix replaces the previous entry, so repeated
        route installation (e.g. after attaching new sites) is
        idempotent rather than table-bloating.
        """
        key, network = _parse_network(prefix)
        self._routes.pop(key, None)
        self._routes[key] = Route(network, port_name, next_hop_mac)
        self._by_length = None
        self._cache.clear()

    def lookup(self, dst_ip: str) -> Route | None:
        """Return the most-specific matching route, or None (a non-IP ``dst_ip`` matches none)."""
        try:
            return self._cache[dst_ip]
        except KeyError:
            pass
        try:
            address = ipaddress.ip_address(dst_ip)
            found = next((route for route in self if address in route.network), None)
        except ValueError:
            found = None
        if len(self._cache) < self._CACHE_MAX:
            self._cache[dst_ip] = found
        return found

    def __iter__(self) -> Iterator[Route]:
        """Routes, longest prefix first (add order within a length)."""
        if self._by_length is None:
            self._by_length = sorted(
                self._routes.values(), key=lambda r: r.network.prefixlen, reverse=True
            )
        return iter(self._by_length)

    def __len__(self) -> int:
        return len(self._routes)


class IpRouter(Node):
    """Static-route IPv4 router with TTL handling and L2 rewrite."""

    def __init__(self, sim, name: str, mac: str = "02:00:00:00:00:00") -> None:
        super().__init__(sim, name)
        self.mac = mac
        self.routes = RoutingTable()
        self.forwarded = 0
        self.dropped_no_route = 0
        self.dropped_ttl = 0

    def add_route(self, prefix: str, port_name: str, next_hop_mac: str) -> None:
        if port_name not in self.ports:
            raise ValueError(f"{self.name} has no port {port_name!r}")
        self.routes.add(prefix, port_name, next_hop_mac)

    def receive(self, packet: Packet, port: Port) -> None:
        ip = packet.find(Ipv4Header)
        if ip is None:
            self.dropped_no_route += 1
            return
        if ip.ttl <= 1:
            self.dropped_ttl += 1
            return
        route = self.routes.lookup(ip.dst)
        if route is None:
            self.dropped_no_route += 1
            return
        ip.ttl -= 1
        eth = packet.find(EthernetHeader)
        if eth is not None:
            eth.src = self.mac
            eth.dst = route.next_hop_mac
        self.forwarded += 1
        self.ports[route.port_name].send(packet)
