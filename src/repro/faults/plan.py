"""Deterministic fault injection: scripted failures on a live topology.

A :class:`FaultPlan` is an ordered script of fault actions at absolute
simulation times — link outages and flaps, loss-model swaps, element
crash/restart, retransmission-buffer failures. A :class:`FaultInjector`
arms the plan on a :class:`~repro.netsim.engine.Simulator`, firing each
action at its time and keeping a replayable record of what fired when.

Everything here is pure scheduling: the *effects* live on the objects
being failed (``Link.up``, ``ProgrammableElement.crash()``,
``RetransmitBuffer.fail()``, ``BufferDirectory.mark_down()``), so the
same plan works on any topology built from those parts. Randomized
fault processes (burst loss regimes, flap jitter) draw from the
simulator's named RNG streams, which makes every chaos run replayable
from its seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

if TYPE_CHECKING:  # imports only for annotations: keep faults light
    from ..core.retransmit import BufferDirectory, RetransmitBuffer
    from ..dataplane.element import ProgrammableElement
    from ..dataplane.programs import ModeTransitionProgram, TransitionRule
    from ..fleet.farm import ReceiverFarm
    from ..netsim.engine import Simulator
    from ..netsim.link import Link
    from ..netsim.loss import GilbertElliottLoss, LossModel
    from .dynamics import LinkDynamics


@dataclass(frozen=True)
class FaultAction:
    """One scheduled fault: what to do, to what, and when."""

    at_ns: int
    kind: str
    target: str
    apply: Callable[[], None]


@dataclass(frozen=True)
class FaultRecord:
    """One fired fault, as the injector logged it."""

    at_ns: int
    kind: str
    target: str


class FaultPlan:
    """A script of fault actions at absolute simulation times.

    Builder methods append actions and return ``self`` so plans chain::

        plan = (
            FaultPlan()
            .link_flap(wan, first_down_ns=300_000, down_ns=200_000,
                       period_ns=500_000, count=2)
            .buffer_fail(u280.buffer, at_ns=500_000, directory=directory)
        )
        FaultInjector(sim, plan).arm()

    Times are absolute (same clock as ``sim.now``); arming a plan whose
    actions are already in the past raises, so a plan is always either
    fully scheduled or not at all.
    """

    def __init__(self) -> None:
        self.actions: list[FaultAction] = []

    # -- generic hook ---------------------------------------------------------

    def at(self, at_ns: int, callback: Callable[[], None], kind: str = "custom",
           target: str = "") -> "FaultPlan":
        """Schedule an arbitrary zero-argument fault callback; every named
        action below is one of these."""
        if at_ns < 0:
            raise ValueError(f"fault time must be >= 0, got {at_ns}")
        self.actions.append(FaultAction(int(at_ns), kind, target, callback))
        return self

    # -- links ----------------------------------------------------------------

    def link_down(self, link: "Link", at_ns: int) -> "FaultPlan":
        """Take a link down (both directions) at ``at_ns``."""

        def apply() -> None:
            link.up = False

        return self.at(at_ns, apply, "link_down", link.name)

    def link_up(self, link: "Link", at_ns: int) -> "FaultPlan":
        """Bring a link back up at ``at_ns``."""

        def apply() -> None:
            link.up = True

        return self.at(at_ns, apply, "link_up", link.name)

    def link_flap(
        self,
        link: "Link",
        first_down_ns: int,
        down_ns: int,
        period_ns: int,
        count: int,
    ) -> "FaultPlan":
        """``count`` down/up cycles: down at ``first_down_ns + i*period_ns``
        for ``down_ns`` each. ``period_ns`` must exceed ``down_ns`` so the
        link is actually up between flaps."""
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        if down_ns <= 0 or period_ns <= down_ns:
            raise ValueError("need 0 < down_ns < period_ns")
        for i in range(count):
            start = first_down_ns + i * period_ns
            self.link_down(link, start)
            self.link_up(link, start + down_ns)
        return self

    def set_loss_model(self, link: "Link", model: "LossModel | None", at_ns: int) -> "FaultPlan":
        """Install (or, with ``None``, remove) a loss model on a link."""

        def apply() -> None:
            link.loss_model = model

        kind = "clear_loss_model" if model is None else "set_loss_model"
        return self.at(at_ns, apply, kind, link.name)

    def clear_loss_model(self, link: "Link", at_ns: int) -> "FaultPlan":
        return self.set_loss_model(link, None, at_ns)

    # -- time-varying dynamics -------------------------------------------------

    def link_dynamics(self, dynamics: "LinkDynamics") -> "FaultPlan":
        """Arm a :class:`~repro.faults.dynamics.LinkDynamics` driver.

        The plan carries one action at the driver's start; the driver
        then self-schedules (one pending event at a time) until its
        bounded ``end_ns``, applying the trajectories through
        ``Link.reconfigure``. A second terminal action marks the
        driver's horizon so the plan's ``start_ns``/``end_ns`` window —
        which chaos scenarios report against — brackets the whole drift.
        """
        self.at(dynamics.start_ns, dynamics.arm, "link_dynamics", dynamics.link.name)
        if dynamics.end_ns > dynamics.start_ns:
            self.at(dynamics.end_ns, lambda: None, "link_dynamics_end", dynamics.link.name)
        return self

    def ge_drift(
        self,
        model: "GilbertElliottLoss",
        schedule: "Iterable[tuple[int, dict[str, float]]]",
        target: str = "",
    ) -> "FaultPlan":
        """Drift an installed Gilbert–Elliott model's parameters.

        ``schedule`` is ``(at_ns, params)`` waypoints where each
        ``params`` dict holds ``set_params`` keyword arguments.
        Parameters are validated eagerly — a bad probability fails at
        plan construction, not mid-soak. The regime state and RNG
        stream are untouched, so drift schedules replay to identical
        loss draws for identical seeds.
        """
        valid = {"p_good_to_bad", "p_bad_to_good", "loss_good", "loss_bad"}
        for at_ns, params in schedule:
            unknown = set(params) - valid
            if unknown:
                raise ValueError(f"unknown GE parameters: {sorted(unknown)}")
            for name, value in params.items():
                if not 0.0 <= value <= 1.0:
                    raise ValueError(f"{name} must be in [0, 1], got {value}")

            def apply(params: dict = dict(params)) -> None:
                model.set_params(**params)

            self.at(at_ns, apply, "ge_drift", target or "gilbert-elliott")
        return self

    # -- mid-flow shape-shifting ----------------------------------------------

    def mode_rewrite(
        self,
        program: "ModeTransitionProgram",
        rules: "list[TransitionRule]",
        at_ns: int,
    ) -> "FaultPlan":
        """Rewrite an element's mode-transition map mid-flow.

        The control-plane path-migration event: the installed table's
        entries are replaced with ``rules`` while the sequence register
        (and therefore every in-flight flow's numbering) carries over.
        """

        def apply() -> None:
            program.replace_rules(rules)

        return self.at(at_ns, apply, "mode_rewrite", "mode_transition")

    # -- dataplane elements ---------------------------------------------------

    def element_crash(self, element: "ProgrammableElement", at_ns: int) -> "FaultPlan":
        """Crash a Tofino/Alveo element: all arriving traffic dropped."""
        return self.at(at_ns, element.crash, "element_crash", element.name)

    def element_restart(self, element: "ProgrammableElement", at_ns: int) -> "FaultPlan":
        """Restart a crashed element (registers and buffer contents wiped)."""
        return self.at(at_ns, element.restart, "element_restart", element.name)

    # -- retransmission buffers -----------------------------------------------

    def buffer_fail(
        self,
        buffer: "RetransmitBuffer",
        at_ns: int,
        directory: "BufferDirectory | None" = None,
    ) -> "FaultPlan":
        """Kill a retransmission buffer (contents lost, stores refused).

        When a :class:`BufferDirectory` is given the address is also
        marked down there, so directory-driven elements start re-stamping
        flows to the next-nearest live buffer at the same instant.
        """

        def apply() -> None:
            buffer.fail()
            if directory is not None:
                directory.mark_down(buffer.address)

        return self.at(at_ns, apply, "buffer_fail", buffer.address)

    def buffer_restore(
        self,
        buffer: "RetransmitBuffer",
        at_ns: int,
        directory: "BufferDirectory | None" = None,
    ) -> "FaultPlan":
        """Bring a failed buffer back (empty) and mark it live again."""

        def apply() -> None:
            buffer.restore()
            if directory is not None:
                directory.mark_up(buffer.address)

        return self.at(at_ns, apply, "buffer_restore", buffer.address)

    def mark_down(self, directory: "BufferDirectory", address: str, at_ns: int) -> "FaultPlan":
        """Mark a buffer down in the directory only: a control-plane
        liveness flap, its contents survive and still serve NAKs."""
        return self.at(at_ns, lambda: directory.mark_down(address), "directory_down", address)

    def mark_up(self, directory: "BufferDirectory", address: str, at_ns: int) -> "FaultPlan":
        """Mark a buffer live again in the directory."""
        return self.at(at_ns, lambda: directory.mark_up(address), "directory_up", address)

    # -- receiver farms -------------------------------------------------------

    def node_crash(self, farm: "ReceiverFarm", index: int, at_ns: int) -> "FaultPlan":
        """Crash receiver DTN ``index``: its WAN leg drops everything."""
        name = farm.nodes[index].host.name
        return self.at(at_ns, lambda: farm.crash_node(index), "node_crash", name)

    def node_restore(self, farm: "ReceiverFarm", index: int, at_ns: int) -> "FaultPlan":
        """Bring a crashed receiver DTN back (it rejoins for new windows)."""
        name = farm.nodes[index].host.name
        return self.at(at_ns, lambda: farm.restore_node(index), "node_restore", name)

    # -- inspection -----------------------------------------------------------

    @property
    def start_ns(self) -> int:
        """Time of the earliest action (0 for an empty plan)."""
        return min((a.at_ns for a in self.actions), default=0)

    @property
    def end_ns(self) -> int:
        """Time of the latest action (0 for an empty plan)."""
        return max((a.at_ns for a in self.actions), default=0)

    def __len__(self) -> int:
        return len(self.actions)


class FaultInjector:
    """Arms a :class:`FaultPlan` on a simulator and logs what fired."""

    def __init__(self, sim: "Simulator", plan: FaultPlan) -> None:
        self.sim = sim
        self.plan = plan
        #: Chronological record of fired actions (replay audit trail).
        self.fired: list[FaultRecord] = []
        #: Causal tracer (repro.trace.Tracer) or None; records each
        #: fired action so packet timelines interleave with the faults
        #: that explain them.
        self.tracer = None
        self._armed = False

    def arm(self) -> int:
        """Schedule every action; returns how many were armed.

        Raises if any action is already in the past or the injector was
        armed before — a plan is scheduled exactly once, completely.
        """
        if self._armed:
            raise RuntimeError("fault plan already armed")
        now = self.sim.now
        for action in self.plan.actions:
            if action.at_ns < now:
                raise ValueError(
                    f"fault {action.kind!r} at {action.at_ns} is in the past (now={now})"
                )
        for action in self.plan.actions:
            self.sim.schedule(action.at_ns - now, self._fire, action)
        self._armed = True
        return len(self.plan.actions)

    def _fire(self, action: FaultAction) -> None:
        action.apply()
        self.fired.append(FaultRecord(self.sim.now, action.kind, action.target))
        if self.tracer is not None:
            self.tracer.emit(
                f"fault.{action.kind}", "fault-injector", target=action.target
            )
