"""repro — reproduction of "Shape-shifting Elephants: Multi-modal
Transport for Integrated Research Infrastructure" (HotNets '24).

Subpackages:

- :mod:`repro.netsim` — deterministic discrete-event network simulator.
- :mod:`repro.core` — the multi-modal transport protocol (MMT).
- :mod:`repro.dataplane` — P4-constrained programmable elements
  (Tofino2 switch and Alveo smartNIC models) and the MMT programs.
- :mod:`repro.daq` — DAQ workload substrate: detector models, frame
  formats, physics-driven generators, the Table 1 experiment catalog.
- :mod:`repro.baselines` — today's transports: tuned TCP and UDP.
- :mod:`repro.wan` — WAN segments, circuits, the ESnet backbone, DTNs.
- :mod:`repro.analysis` — metrics and report tables.
- :mod:`repro.integration` — integrated research infrastructure
  scenarios (multi-domain alerts, instrument-to-instrument triggers).
"""

__version__ = "1.0.0"
