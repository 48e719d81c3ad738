"""The farm's epoch-numbered control loop (EJ-FAT sync messages).

EJ-FAT's receivers send *sync* messages — periodic fill/backpressure
reports — and the balancer's control plane folds them into table
updates. Transport Layer Networking (Kumar et al.) frames those tables
as transport state: they must react to receiver health, not just
initial placement. :class:`FleetController` is that loop for the
reproduction:

- every ``sync_interval_ns`` it samples each live node's fill level
  (the balancer-egress queue toward the node — the exact backlog the
  real balancer FPGA sees building up) and calls
  :meth:`~repro.dataplane.loadbalancer.LoadBalancerProgram.report_load`;
- liveness changes arrive as BufferDirectory-style marks
  (:meth:`mark_node_down` / :meth:`mark_node_up`, typically from
  :meth:`~repro.fleet.farm.ReceiverFarm.crash_node` or a fault plan)
  and are *applied at the next sync tick* — the measured gap between
  the mark and its table update is the table-update latency the
  orchestrator reports.

Every table mutation bumps the balancer's epoch, so steering decisions
are attributable to a table generation — the property the conformance
suite checks (one node per seq per epoch).

The loop is scheduled over a bounded horizon (:meth:`run_until`), not
as a free-running timer: chaos and benchmark runs drive the simulator
to quiescence, and an immortal timer would never let them get there.
A liveness mark arriving past the horizon schedules one catch-up tick,
so late crashes are still detected within one sync interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..dataplane.loadbalancer import LoadBalancerProgram
from ..netsim.engine import Simulator
from ..netsim.units import MICROSECOND


@dataclass
class ControlStats:
    """What the control loop did, in plain ints."""

    syncs: int = 0
    fill_reports: int = 0
    marks_down: int = 0
    marks_up: int = 0
    #: Calendar entries remapped by redirect-on-crash.
    redirected_windows: int = 0
    #: ns from each liveness mark to the sync tick that applied it.
    update_latency_ns: list[int] = field(default_factory=list)

    @property
    def max_update_latency_ns(self) -> int:
        return max(self.update_latency_ns, default=0)


class FleetController:
    """Health-fed balancer table maintenance for a receiver farm."""

    def __init__(
        self,
        sim: Simulator,
        balancer: LoadBalancerProgram,
        fill_fn: Callable[[str], int],
        sync_interval_ns: int = 100 * MICROSECOND,
    ) -> None:
        if sync_interval_ns <= 0:
            raise ValueError(f"sync_interval_ns must be positive, got {sync_interval_ns}")
        self.sim = sim
        self.balancer = balancer
        self.fill_fn = fill_fn
        self.sync_interval_ns = sync_interval_ns
        self.stats = ControlStats()
        #: address → time the down-mark was requested (awaiting a tick).
        self._pending_down: dict[str, int] = {}
        self._pending_up: dict[str, int] = {}
        #: address → declared dead (controller's liveness view).
        self._down: set[str] = set()
        self._scheduled_until = -1
        self.tracer = None

    # -- scheduling -----------------------------------------------------------

    def run_until(self, until_ns: int) -> int:
        """Schedule sync ticks every interval up to ``until_ns``
        (absolute); returns how many ticks were scheduled. Idempotent
        for overlapping horizons — already-covered ticks are not
        duplicated."""
        first = max(
            self.sim.now + self.sync_interval_ns,
            self._scheduled_until + self.sync_interval_ns,
        )
        count = 0
        at = first
        while at <= until_ns:
            self.sim.schedule(at - self.sim.now, self._sync)
            self._scheduled_until = at
            at += self.sync_interval_ns
            count += 1
        return count

    def _ensure_tick(self) -> None:
        """A mark arriving past the horizon still gets detected: extend
        the schedule by one tick."""
        if self._scheduled_until < self.sim.now + 1:
            self.sim.schedule(self.sync_interval_ns, self._sync)
            self._scheduled_until = self.sim.now + self.sync_interval_ns

    # -- liveness marks (BufferDirectory-style) -------------------------------

    def mark_node_down(self, address: str) -> None:
        """A node stopped responding; applied at the next sync tick."""
        if address in self._down or address in self._pending_down:
            return
        self._pending_up.pop(address, None)
        self._pending_down[address] = self.sim.now
        self._ensure_tick()

    def mark_node_up(self, address: str) -> None:
        """A node came back; applied at the next sync tick."""
        if address not in self._down and address not in self._pending_down:
            return
        self._pending_down.pop(address, None)
        self._pending_up.setdefault(address, self.sim.now)
        self._ensure_tick()

    # -- the sync tick --------------------------------------------------------

    def _sync(self) -> None:
        self.stats.syncs += 1
        for address, marked_at in sorted(self._pending_down.items()):
            moved = self.balancer.mark_down(address)
            self._down.add(address)
            self.stats.marks_down += 1
            self.stats.redirected_windows += len(moved)
            self.stats.update_latency_ns.append(self.sim.now - marked_at)
        self._pending_down.clear()
        for address, marked_at in sorted(self._pending_up.items()):
            self.balancer.mark_up(address)
            self._down.discard(address)
            self.stats.marks_up += 1
            self.stats.update_latency_ns.append(self.sim.now - marked_at)
        self._pending_up.clear()
        for address in self.balancer.backends:
            if address in self._down:
                continue
            self.balancer.report_load(address, self.fill_fn(address))
            self.stats.fill_reports += 1
        if self.tracer is not None:
            self.tracer.emit(
                "balancer.sync", "fleet-controller",
                epoch=self.balancer.epoch, syncs=self.stats.syncs,
            )
