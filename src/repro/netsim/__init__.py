"""Deterministic discrete-event network simulator.

This package is the substrate the paper's pilot runs on in this
reproduction: an integer-nanosecond event engine, byte-accurate packets
and headers, links with rate/delay/MTU/loss, queue disciplines (incl.
the deadline-aware AQM of §5.3), L2/L3 switching, end hosts with a
protocol demux, and a topology builder with automatic routing.
"""

from .engine import Event, SimulationError, Simulator, Timer
from .headers import (
    EthernetHeader,
    EtherType,
    Header,
    IpProto,
    Ipv4Header,
    TcpHeader,
    UdpHeader,
)
from .host import Host
from .link import Link, Port
from .loss import GilbertElliottLoss, LossModel, UniformLoss
from .node import Node
from .packet import Packet
from .queues import (
    DeadlineAwareQueue,
    DropTailQueue,
    DrrScheduler,
    QueueDiscipline,
    RedQueue,
)
from .switch import EthernetSwitch, IpRouter, RoutingTable
from .topology import (
    LeafSpine,
    LeafSpineSpec,
    Topology,
    TopologyError,
    build_leaf_spine,
)
from . import units

__all__ = [
    "DeadlineAwareQueue",
    "DropTailQueue",
    "DrrScheduler",
    "EthernetHeader",
    "EtherType",
    "Event",
    "Header",
    "Host",
    "IpProto",
    "IpRouter",
    "Ipv4Header",
    "GilbertElliottLoss",
    "Link",
    "LossModel",
    "UniformLoss",
    "Node",
    "Packet",
    "Port",
    "QueueDiscipline",
    "RedQueue",
    "RoutingTable",
    "SimulationError",
    "Simulator",
    "TcpHeader",
    "Timer",
    "LeafSpine",
    "LeafSpineSpec",
    "Topology",
    "TopologyError",
    "build_leaf_spine",
    "UdpHeader",
    "units",
]
