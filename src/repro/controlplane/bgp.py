"""Inter-domain distribution of the resource map.

"This map is shared between network operators — perhaps by
piggy-backing on BGP messages — to describe their programmable
infrastructure and its capabilities." (§6)

:class:`MapSpeaker` models the BGP-attribute flavour of that idea:
each operator domain runs a speaker; peers exchange UPDATE messages
carrying resource descriptors (instead of NLRI) with a domain-path
attribute for loop prevention. Propagation is simulated with
configurable per-session delays on the shared event engine, so
convergence time is measurable.

This is a control-plane model, not a BGP implementation: no TCP
sessions, no best-path selection — resource descriptors are facts, not
routes, so "newest version wins" replaces path ranking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..dataplane.placement import ResourceDescriptor, ResourceMap
from ..netsim.engine import Simulator


@dataclass(frozen=True)
class MapUpdate:
    """One UPDATE message: a descriptor plus the path."""

    descriptor: ResourceDescriptor
    domain_path: tuple[str, ...]


@dataclass
class _Peering:
    speaker: "MapSpeaker"
    delay_ns: int


class MapSpeaker:
    """One domain's resource-map speaker."""

    def __init__(self, sim: Simulator, domain: str) -> None:
        self.sim = sim
        self.domain = domain
        self.map = ResourceMap()
        self._peers: dict[str, _Peering] = {}
        self.updates_sent = 0
        self.updates_received = 0
        self.loops_suppressed = 0
        self.on_change: Callable[[ResourceDescriptor], None] | None = None

    # -- peering --------------------------------------------------------------

    def peer_with(self, other: "MapSpeaker", delay_ns: int) -> None:
        """Create a bidirectional peering with symmetric delay."""
        if other.domain == self.domain:
            raise ValueError("cannot peer a domain with itself")
        self._peers[other.domain] = _Peering(other, delay_ns)
        other._peers[self.domain] = _Peering(self, delay_ns)

    # -- origination -------------------------------------------------------------

    def advertise(self, descriptor: ResourceDescriptor) -> None:
        """Originate (or refresh) a local resource."""
        if descriptor.domain != self.domain:
            raise ValueError(
                f"{self.domain} cannot originate {descriptor.node} "
                f"(belongs to {descriptor.domain})"
            )
        if self.map.upsert(descriptor):
            self._flood(MapUpdate(descriptor, (self.domain,)), exclude=None)
            if self.on_change is not None:
                self.on_change(descriptor)

    # -- propagation ----------------------------------------------------------------

    def _flood(self, update: MapUpdate, exclude: str | None) -> None:
        for domain, peering in self._peers.items():
            if domain == exclude:
                continue
            if domain in update.domain_path:
                self.loops_suppressed += 1
                continue
            self.updates_sent += 1
            forwarded = MapUpdate(update.descriptor, update.domain_path + (domain,))
            self.sim.schedule(peering.delay_ns, peering.speaker._receive, forwarded, self.domain)

    def _receive(self, update: MapUpdate, from_domain: str) -> None:
        self.updates_received += 1
        if self.domain in update.domain_path[:-1]:
            self.loops_suppressed += 1
            return
        if self.map.upsert(update.descriptor):
            self._flood(update, exclude=from_domain)
            if self.on_change is not None:
                self.on_change(update.descriptor)


def converge(speakers: list[MapSpeaker]) -> bool:
    """True when every speaker holds the identical map (test helper)."""
    if not speakers:
        return True
    reference = speakers[0].map.entries
    return all(s.map.entries == reference for s in speakers[1:])
