"""The experiment catalog of Table 1.

Each entry records an experiment's published DAQ rate and enough shape
information (message size, traffic pattern) to instantiate a workload
generator at full scale or at a laptop-friendly scale factor.

==============  =========  =====================================
Experiment      DAQ rate   character
==============  =========  =====================================
CMS L1 Trigger  63 Tbps    accelerator-driven, 40 MHz bunch clock
DUNE            120 Tbps   steady LArTPC readout + rare bursts
ECCE detector   100 Tbps   collider detector (EIC)
Mu2e            160 Gbps   spill-structured, raw over Ethernet
Vera Rubin      400 Gbps   exposure cadence + alert bursts
==============  =========  =====================================
"""

from __future__ import annotations

from dataclasses import dataclass

from ..netsim.units import MILLISECOND, SECOND, gbps, tbps
from .generators import (
    BeamSpill,
    CompositeProcess,
    PoissonEvents,
    SteadyReadout,
    TrafficProcess,
)


@dataclass(frozen=True)
class ExperimentSpec:
    """One row of Table 1, plus generator shape parameters."""

    name: str
    experiment_number: int
    daq_rate_bps: int
    #: Typical DAQ message size on the wire (jumbo-frame fitted, §2.1).
    message_bytes: int
    #: "steady", "spill", or "cadence" — which generator shape fits.
    pattern: str
    description: str

    def workload(self, scale: float = 1.0) -> TrafficProcess:
        """Build a traffic process offering ``scale`` × the DAQ rate.

        ``scale < 1`` produces a rate-accurate *shape* at tractable
        volume — the standard simulation substitution for multi-Tbps
        hardware (documented in DESIGN.md).
        """
        if scale <= 0:
            raise ValueError("scale must be positive")
        rate = max(1, round(self.daq_rate_bps * scale))
        if self.pattern == "spill":
            # Mu2e-like: ~43% duty cycle spills on a 1.4 s supercycle.
            return BeamSpill(
                period_ns=1_400 * MILLISECOND,
                spill_duration_ns=600 * MILLISECOND,
                spill_rate_bps=round(rate / 0.43),
                message_bytes=self.message_bytes,
            )
        if self.pattern == "cadence":
            # Rubin-like: steady exposure readout plus alert bursts.
            steady = SteadyReadout(rate_bps=round(rate * 0.98), message_bytes=self.message_bytes)
            alerts = PoissonEvents(
                event_rate_hz=1.0 / 30.0,  # a 30 s exposure cadence
                messages_per_event=50,
                message_bytes=self.message_bytes,
                kind="alert",
            )
            return CompositeProcess([steady, alerts])
        return SteadyReadout(rate_bps=rate, message_bytes=self.message_bytes)


CMS_L1 = ExperimentSpec(
    name="CMS L1 Trigger",
    experiment_number=1,
    daq_rate_bps=tbps(63),
    message_bytes=8192,
    pattern="steady",
    description="High-energy physics; 40 MHz collision-synchronous trigger stream.",
)

DUNE = ExperimentSpec(
    name="DUNE",
    experiment_number=2,
    daq_rate_bps=tbps(120),
    message_bytes=8192,
    pattern="steady",
    description="LArTPC far detector; beam, solar, cosmic, and supernova sources.",
)

ECCE = ExperimentSpec(
    name="ECCE detector",
    experiment_number=3,
    daq_rate_bps=tbps(100),
    message_bytes=8192,
    pattern="steady",
    description="Electron-Ion Collider detector.",
)

MU2E = ExperimentSpec(
    name="Mu2e",
    experiment_number=4,
    daq_rate_bps=gbps(160),
    message_bytes=4096,
    pattern="spill",
    description="Muon-to-electron conversion; spill-structured, raw Ethernet DAQ.",
)

VERA_RUBIN = ExperimentSpec(
    name="Vera Rubin",
    experiment_number=5,
    daq_rate_bps=gbps(400),
    message_bytes=8192,
    pattern="cadence",
    description="Survey telescope; 30 TB/night captures plus 5.4 Gb/s alert bursts.",
)


def catalog() -> list[ExperimentSpec]:
    """All Table 1 experiments, in the paper's row order."""
    return [CMS_L1, DUNE, ECCE, MU2E, VERA_RUBIN]


#: Offered-load window a rate measurement needs to converge within 1%
#: for the largest catalog message size.
MIN_MEASUREMENT_WINDOW_NS = SECOND // 100
