"""Alveo FPGA smartNIC model (ESnet smartNIC platform).

The pilot used AMD Alveo U280 and U55C cards managed with the ESnet
smartNIC platform. Functionally, each card is a *bump-in-the-wire*
between a DTN and the network that can:

- run header-processing pipelines at line rate (like the Tofino model,
  but with fewer effective stages available to the user logic);
- host multi-gigabyte retransmission buffers in on-card HBM — this is
  what lets a NAK be served without involving the host CPU;
- originate control packets (retransmissions, miss reports).

The card has exactly two ports, named ``"host"`` and ``"net"``.
Forwarding between them is transparent except for packets addressed to
the card's own IP (NAK service). FPGA datapath latency is modelled as a
constant, like the switch ASIC.
"""

from __future__ import annotations

from heapq import heappush

from ..netsim.engine import Simulator
from ..netsim.link import Port
from ..netsim.packet import Packet
from ..netsim.queues import QueueDiscipline
from .element import ProgrammableElement

#: Usable pipeline depth we allow user logic on the FPGA model.
ALVEO_STAGES = 16

#: FPGA store-and-forward datapath latency (~2 us typical for a
#: full-reassembly smartNIC pipeline).
ALVEO_LATENCY_NS = 2_000

#: On-card HBM capacities (bytes) — the resource that bounds how much
#: recent stream a card can hold for retransmission.
U280_HBM_BYTES = 8 * 1024**3
U55C_HBM_BYTES = 16 * 1024**3


class AlveoNic(ProgrammableElement):
    """A two-port FPGA smartNIC; see module docstring."""

    HOST_PORT = "host"
    NET_PORT = "net"

    def __init__(
        self,
        sim: Simulator,
        name: str,
        mac: str,
        ip: str | None = None,
        hbm_bytes: int = U280_HBM_BYTES,
        datapath_latency_ns: int = ALVEO_LATENCY_NS,
    ) -> None:
        super().__init__(sim, name, mac=mac, ip=ip, stages=ALVEO_STAGES)
        self.hbm_bytes = hbm_bytes
        self.datapath_latency_ns = datapath_latency_ns

    @classmethod
    def u280(cls, sim: Simulator, name: str, mac: str, ip: str | None = None) -> "AlveoNic":
        return cls(sim, name, mac=mac, ip=ip, hbm_bytes=U280_HBM_BYTES)

    @classmethod
    def u55c(cls, sim: Simulator, name: str, mac: str, ip: str | None = None) -> "AlveoNic":
        return cls(sim, name, mac=mac, ip=ip, hbm_bytes=U55C_HBM_BYTES)

    def attach_buffer(self, capacity_bytes: int | None = None):
        """Host a retransmission buffer in HBM (defaults to all of it)."""
        capacity = capacity_bytes if capacity_bytes is not None else self.hbm_bytes
        if capacity > self.hbm_bytes:
            raise ValueError(
                f"{self.name}: buffer {capacity} B exceeds HBM {self.hbm_bytes} B"
            )
        return super().attach_buffer(capacity)

    def add_port(self, name: str, queue: QueueDiscipline | None = None) -> Port:
        if name not in (self.HOST_PORT, self.NET_PORT) and not name.startswith("to_"):
            raise ValueError(f"Alveo ports are {self.HOST_PORT!r}/{self.NET_PORT!r}")
        if len(self.ports) >= 2:
            raise ValueError(f"{self.name}: Alveo cards have exactly two ports")
        return super().add_port(name, queue=queue)

    def receive(self, packet: Packet, port: Port) -> None:
        if self.datapath_latency_ns == 0:
            super().receive(packet, port)
            return
        sim = self.sim  # the datapath hop, pushed under the engine's hop contract
        heappush(sim.heap, (sim.now + self.datapath_latency_ns, next(sim.seqs),
                            super().receive, (packet, port)))

    def hbm_flow_occupancy(self) -> dict[tuple[int, int], int]:
        """Bytes of HBM each ``(experiment, flow)`` currently occupies.

        The shared on-card buffer is the contended resource when many
        concurrent flows ride one card; this is the per-flow residency
        view a fairness scrape needs (empty when no buffer is hosted).
        """
        if self.buffer is None:
            return {}
        return self.buffer.bytes_by_flow()
