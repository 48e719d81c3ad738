"""Base node types.

A :class:`Node` owns named :class:`~repro.netsim.link.Port` objects and
receives packets from them. Concrete nodes — hosts, switches, DTNs,
programmable dataplanes — subclass :meth:`Node.receive`.
"""

from __future__ import annotations

from .engine import Simulator
from .link import Port
from .packet import Packet
from .queues import QueueDiscipline


class Node:
    """A network element with named ports."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.ports: dict[str, Port] = {}

    def add_port(self, name: str, queue: QueueDiscipline | None = None) -> Port:
        """Create and register a new port; names must be unique per node."""
        if name in self.ports:
            raise ValueError(f"{self.name} already has a port named {name!r}")
        port = Port(self, name, queue=queue)
        self.ports[name] = port
        return port

    def receive(self, packet: Packet, port: Port) -> None:
        """Handle an ingress packet; subclasses must override."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"

