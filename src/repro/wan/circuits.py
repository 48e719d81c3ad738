"""Capacity-planned circuits.

Scientific WANs run DAQ transfers over *reserved* circuits — "data
transfers across scientific networks are usually capacity-planned and
scheduled to ensure that suitable transmission capacity is available"
(§5.3); this is the basis for the paper's hypothesis that MMT needs no
congestion control. A :class:`CircuitManager` does that bookkeeping:
reservations against link capacity with admission control, so
scenarios can assert they are (or deliberately are not) inside plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..netsim.link import Link


class CircuitError(RuntimeError):
    """Raised when a reservation cannot be admitted."""


@dataclass(frozen=True)
class Reservation:
    """A bandwidth reservation on one link for a time window."""

    circuit_id: int
    link_name: str
    rate_bps: int
    start_ns: int
    end_ns: int
    owner: str

    def overlaps(self, start_ns: int, end_ns: int) -> bool:
        return self.start_ns < end_ns and start_ns < self.end_ns


@dataclass
class CircuitManager:
    """Admission control for reservations across a set of links.

    ``headroom`` keeps a fraction of each link unreserved for control
    traffic and measurement flows, as production circuit services do.
    """

    headroom: float = 0.05
    _links: dict[str, Link] = field(default_factory=dict)
    _reservations: list[Reservation] = field(default_factory=list)
    _next_id: int = 1

    def manage(self, link: Link) -> None:
        """Put ``link`` under this manager's admission control."""
        if link.name in self._links:
            raise CircuitError(f"link {link.name!r} already managed")
        self._links[link.name] = link

    def reservable_bps(self, link_name: str, start_ns: int, end_ns: int) -> int:
        """Capacity still admittable on a link during a window."""
        link = self._require(link_name)
        ceiling = int(link.rate_bps * (1.0 - self.headroom))
        committed = sum(
            r.rate_bps
            for r in self._reservations
            if r.link_name == link_name and r.overlaps(start_ns, end_ns)
        )
        return max(0, ceiling - committed)

    def reserve(
        self,
        link_names: list[str],
        rate_bps: int,
        start_ns: int,
        end_ns: int,
        owner: str,
    ) -> list[Reservation]:
        """Reserve ``rate_bps`` along a path of links, atomically."""
        if rate_bps <= 0:
            raise CircuitError("reservation rate must be positive")
        if end_ns <= start_ns:
            raise CircuitError("reservation window must be non-empty")
        for name in link_names:
            available = self.reservable_bps(name, start_ns, end_ns)
            if rate_bps > available:
                raise CircuitError(
                    f"link {name!r}: requested {rate_bps} b/s, only "
                    f"{available} b/s admittable in window"
                )
        granted = []
        for name in link_names:
            reservation = Reservation(
                circuit_id=self._next_id,
                link_name=name,
                rate_bps=rate_bps,
                start_ns=start_ns,
                end_ns=end_ns,
                owner=owner,
            )
            self._reservations.append(reservation)
            granted.append(reservation)
        self._next_id += 1
        return granted

    def utilization(self, link_name: str, at_ns: int) -> float:
        """Reserved fraction of a link's rate at an instant."""
        link = self._require(link_name)
        committed = sum(
            r.rate_bps
            for r in self._reservations
            if r.link_name == link_name and r.start_ns <= at_ns < r.end_ns
        )
        return committed / link.rate_bps

    def _require(self, link_name: str) -> Link:
        link = self._links.get(link_name)
        if link is None:
            raise CircuitError(f"link {link_name!r} is not managed")
        return link
