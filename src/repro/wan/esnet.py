"""An ESnet6-like continental backbone.

The paper's WAN stage (Fig. 1 B, §2.2) is ESnet in practice: a
capacity-planned 400 Gb/s backbone joining DOE facilities. This module
builds a realistic (simplified) instance: named PoPs with fiber-length
derived propagation delays (5 us/km in glass), 400 GbE trunks under a
:class:`~repro.wan.circuits.CircuitManager`, and helpers to attach
facility sites (FNAL, SURF, NERSC, ...) and reserve circuits along
lowest-latency paths.

Distances are route-level approximations of the production footprint —
good enough that coast-to-coast one-way delay lands in the real
30-40 ms band the paper's 10-100 ms RTT WAN figure implies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..netsim.engine import Simulator
from ..netsim.host import Host
from ..netsim.switch import IpRouter
from ..netsim.topology import Topology
from ..netsim.units import gbps
from .circuits import CircuitManager

#: Propagation in fiber: ~5 us per km.
NS_PER_KM = 5_000

#: Backbone PoPs (a production-inspired subset).
POPS = (
    "SEAT", "SUNN", "SACR", "DENV", "ELPA", "KANS", "HOUS",
    "CHIC", "NASH", "ATLA", "WASH", "NEWY", "BOST",
)

#: Trunk fiber routes and their approximate lengths (km).
TRUNKS_KM: dict[tuple[str, str], int] = {
    ("SEAT", "SACR"): 1250,
    ("SACR", "SUNN"): 160,
    ("SUNN", "ELPA"): 1900,
    ("SACR", "DENV"): 1900,
    ("SEAT", "DENV"): 2100,
    ("DENV", "KANS"): 970,
    ("ELPA", "HOUS"): 1200,
    ("KANS", "CHIC"): 800,
    ("HOUS", "NASH"): 1250,
    ("CHIC", "NASH"): 750,
    ("CHIC", "WASH"): 1120,
    ("NASH", "ATLA"): 400,
    ("ATLA", "WASH"): 1000,
    ("WASH", "NEWY"): 370,
    ("NEWY", "BOST"): 350,
    ("CHIC", "NEWY"): 1300,
}

#: Facility sites and the PoP they home to (with tail length, km).
SITES: dict[str, tuple[str, int]] = {
    "FNAL": ("CHIC", 70),       # Fermilab
    "ANL": ("CHIC", 50),        # Argonne
    "SURF": ("DENV", 600),      # Sanford lab (DUNE far site)
    "NERSC": ("SACR", 140),     # LBNL/NERSC
    "SLAC": ("SUNN", 40),
    "BNL": ("NEWY", 100),       # Brookhaven
    "ORNL": ("NASH", 250),      # Oak Ridge
    "JLAB": ("WASH", 250),      # Jefferson Lab
}


@dataclass
class EsnetBackbone:
    """A built backbone: topology, routers, sites, circuit manager."""

    topology: Topology
    routers: dict[str, IpRouter]
    sites: dict[str, Host]
    circuits: CircuitManager
    link_names: dict[tuple[str, str], str] = field(default_factory=dict)

    def attach_site(
        self,
        name: str,
        pop: str,
        tail_km: int,
        rate_bps: int = gbps(400),
        managed: bool = True,
    ) -> Host:
        """Attach an additional facility below a PoP."""
        if pop not in self.routers:
            raise KeyError(f"unknown PoP {pop!r}")
        if name in self.sites:
            raise KeyError(f"site {name!r} already attached")
        host = self.topology.add_host(name)
        link = self.topology.connect(
            host, self.routers[pop], rate_bps, tail_km * NS_PER_KM
        )
        if managed:
            self.circuits.manage(link)
        self.sites[name] = host
        self.link_names[(name, pop)] = link.name
        # Route installation is idempotent; refresh for the new site.
        self.topology.install_routes()
        return host

    def path_link_names(self, src: str, dst: str) -> list[str]:
        """Link names along the lowest-latency path between two nodes
        (sites or PoPs), for circuit reservation."""
        path = self.topology.path(self._node(src), self._node(dst))
        names = []
        for a, b in zip(path, path[1:]):
            names.append(self.topology.link_between(a, b).name)
        return names

    def one_way_delay_ns(self, src: str, dst: str) -> int:
        """Propagation delay along the lowest-latency path."""
        path = self.topology.path(self._node(src), self._node(dst))
        return sum(
            self.topology.link_between(a, b).propagation_delay_ns
            for a, b in zip(path, path[1:])
        )

    def reserve_circuit(
        self, src: str, dst: str, rate_bps: int, start_ns: int, end_ns: int, owner: str
    ):
        """Reserve bandwidth along the whole src→dst path, atomically."""
        return self.circuits.reserve(
            self.path_link_names(src, dst), rate_bps, start_ns, end_ns, owner
        )

    def _node(self, name: str):
        if name in self.sites:
            return self.sites[name]
        if name in self.routers:
            return self.routers[name]
        raise KeyError(f"unknown site or PoP {name!r}")


def build_esnet(
    sim: Simulator,
    trunk_rate_bps: int = gbps(400),
    with_sites: bool = True,
) -> EsnetBackbone:
    """Build the backbone (and, optionally, the standard facility set)."""
    topo = Topology(sim)
    routers = {pop: topo.add_router(pop) for pop in POPS}
    circuits = CircuitManager(headroom=0.05)
    backbone = EsnetBackbone(
        topology=topo, routers=routers, sites={}, circuits=circuits
    )
    for (a, b), km in TRUNKS_KM.items():
        link = topo.connect(routers[a], routers[b], trunk_rate_bps, km * NS_PER_KM)
        circuits.manage(link)
        backbone.link_names[(a, b)] = link.name
    if with_sites:
        for site, (pop, tail_km) in SITES.items():
            backbone.attach_site(site, pop, tail_km, rate_bps=gbps(400))
    topo.install_routes()
    return backbone
