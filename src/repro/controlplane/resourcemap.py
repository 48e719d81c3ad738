"""The map of in-network programmable resources (§6, challenge 1).

"We initially envisage having a map of in-network programmable
resources that DAQ workloads can use. This map is shared between
network operators [...] to describe their programmable infrastructure
and its capabilities."

A :class:`ResourceDescriptor` is one element's self-description:
where it sits (domain + node name), what it can do (capability set),
and how much of it there is (buffer bytes, table space, duplication
fan-out). Descriptors merge into a :class:`ResourceMap`, versioned per
origin so re-advertisements supersede.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class Capability(str, Enum):
    """What a programmable element offers to DAQ transport."""

    MODE_TRANSITION = "mode-transition"
    RETRANSMIT_BUFFER = "retransmit-buffer"
    AGE_UPDATE = "age-update"
    DUPLICATION = "duplication"
    BACKPRESSURE = "backpressure"
    #: Beyond header processing: DPDK/FPGA payload transforms (§6 ch. 2).
    PAYLOAD_PROCESSING = "payload-processing"


@dataclass(frozen=True)
class ResourceDescriptor:
    """One element's advertised capabilities."""

    node: str
    domain: str
    address: str
    capabilities: frozenset[Capability]
    buffer_bytes: int = 0
    table_entries: int = 0
    max_duplication_fanout: int = 0
    #: Monotone per-origin version; higher supersedes lower.
    version: int = 1

    def __post_init__(self) -> None:
        if not self.node or not self.domain:
            raise ValueError("node and domain are required")
        if Capability.RETRANSMIT_BUFFER in self.capabilities and self.buffer_bytes <= 0:
            raise ValueError(f"{self.node}: buffer capability without capacity")
        if self.version <= 0:
            raise ValueError("version must be positive")

    def supports(self, capability: Capability) -> bool:
        return capability in self.capabilities


@dataclass
class ResourceMap:
    """A converged view: node name → newest descriptor."""

    entries: dict[str, ResourceDescriptor] = field(default_factory=dict)

    def upsert(self, descriptor: ResourceDescriptor) -> bool:
        """Insert/refresh; returns True when the map changed."""
        current = self.entries.get(descriptor.node)
        if current is not None and current.version >= descriptor.version:
            return False
        self.entries[descriptor.node] = descriptor
        return True

    def get(self, node: str) -> ResourceDescriptor | None:
        return self.entries.get(node)

    def __len__(self) -> int:
        return len(self.entries)
