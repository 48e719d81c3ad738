"""Tofino2 switch model.

An Intel Tofino2 is a fixed-latency, match-action programmable switch
ASIC: 20 MAU stages per pipeline, header-only processing, no floating
point, SRAM-bounded tables, and stateful register externs — all
constraints :mod:`repro.dataplane.pipeline` enforces. The pilot (§5.4)
used an EdgeCore Tofino2 for in-flight header rewriting: age updates,
nearest-buffer stamping, and mode transitions.

Functional model: per-packet pipeline latency is a constant (ASIC
pipelines are fixed-latency by construction); forwarding follows the
element's routing table. The latency is modelled at ingress by
scheduling pipeline execution ``pipeline_latency_ns`` after arrival.
"""

from __future__ import annotations

from ..netsim.engine import Simulator
from ..netsim.link import Port
from ..netsim.packet import Packet
from .element import ProgrammableElement

#: Tofino2 ships 20 match-action stages per pipeline.
TOFINO2_STAGES = 20

#: Typical port-to-port latency of a Tofino-class ASIC (~600 ns cut-through).
TOFINO2_LATENCY_NS = 600


class TofinoSwitch(ProgrammableElement):
    """An EdgeCore Tofino2-like programmable switch."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        mac: str,
        ip: str | None = None,
        pipeline_latency_ns: int = TOFINO2_LATENCY_NS,
    ) -> None:
        super().__init__(sim, name, mac=mac, ip=ip, stages=TOFINO2_STAGES)
        if pipeline_latency_ns < 0:
            raise ValueError("pipeline latency must be >= 0")
        self.pipeline_latency_ns = pipeline_latency_ns
        #: Per-flow ingress counters, modelling Tofino's direct match
        #: counters keyed on the FLOW_ID extension: ``(experiment,
        #: flow) → [packets, bytes]``. Only flow-tagged traffic is
        #: counted, so legacy single-flow pipelines pay one attribute
        #: test per packet and nothing else.
        self._flow_counters: dict[tuple[int, int], list[int]] = {}

    def receive(self, packet: Packet, port: Port) -> None:
        mmt = packet.mmt
        if mmt is not None and mmt.flow_id is not None:
            counter = self._flow_counters.get(mmt.flow_key)
            if counter is None:
                counter = [0, 0]
                self._flow_counters[mmt.flow_key] = counter
            counter[0] += 1
            counter[1] += packet.size_bytes
        if self.pipeline_latency_ns == 0:
            super().receive(packet, port)
            return
        self.sim.schedule(self.pipeline_latency_ns, super().receive, packet, port)

    def flow_counters(self) -> dict[tuple[int, int], tuple[int, int]]:
        """``(experiment, flow) → (packets, bytes)`` seen at ingress."""
        return {key: (c[0], c[1]) for key, c in self._flow_counters.items()}
