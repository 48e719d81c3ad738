"""Deterministic fault injection and resilience (the chaos layer).

Three pieces, stacked:

- :mod:`repro.faults.plan` — :class:`FaultPlan`/:class:`FaultInjector`:
  scripted, seeded, replayable faults on any topology;
- :mod:`repro.faults.dynamics` — time-varying link models:
  :class:`Trajectory` curves (step/linear/diurnal) applied to live
  links by a self-scheduling :class:`LinkDynamics` driver;
- :mod:`repro.faults.chaos` — named scenarios over the Fig. 4 pilot
  and the receiver farm, one table driving one run path, with recovery
  metrics written to ``BENCH_chaos.json``.

It re-exports the netsim loss models a plan attaches to links
(:class:`GilbertElliottLoss`, :class:`UniformLoss`).

The *mechanisms* these exercise (buffer liveness and failover in
:class:`~repro.core.retransmit.BufferDirectory`, sender mode
degradation, element crash/restart) live with the components they
protect; this package only injects the failures and measures the
response.
"""

from .chaos import (
    SCENARIOS,
    ChaosConfig,
    ChaosReport,
    ChaosRun,
    run_chaos,
    run_scenarios,
    write_bench,
)
from .dynamics import LinkDynamics, Trajectory
from ..netsim.loss import GilbertElliottLoss, LossModel, UniformLoss
from .plan import FaultAction, FaultInjector, FaultPlan, FaultRecord

__all__ = [
    "ChaosConfig",
    "ChaosReport",
    "ChaosRun",
    "FaultAction",
    "FaultInjector",
    "FaultPlan",
    "FaultRecord",
    "GilbertElliottLoss",
    "LinkDynamics",
    "LossModel",
    "SCENARIOS",
    "Trajectory",
    "UniformLoss",
    "run_chaos",
    "run_scenarios",
    "write_bench",
]
