"""Long-soak endurance harness: hours of simulated time under churn.

The chaos scenarios (:mod:`repro.faults.chaos`) answer "does one fault
recover?"; the soak answers "does *nothing leak* across thousands of
them?". One harness run drives the directory-wired pilot for
hours-equivalent simulated time with a steady + Poisson DAQ mix and a
periodic churn script — WAN link flaps, Gilbert–Elliott burst windows
with parameter drift, a diurnal rate curve, U280 buffer kill/restore
cycles, directory liveness flaps that degrade and re-upgrade every
sender, and mid-flow mode-map rewrites at the U55C — then runs a
receiver-farm segment with fleet-node flaps on top.

Two things make it an *endurance* harness rather than a long test:

- **Bounded-memory sampling.** The run is chunked into epochs; at each
  boundary the harness samples every structure that could leak —
  retransmit-buffer residency (bytes and entries, both buffers),
  NAK-forward-guard population across every stack and element, the
  tracer's flight-recorder retention, and the telemetry registry's
  series count. Each gets an explicit budget from the config, peaks are
  asserted against the budgets, and the *growth slope* across the final
  third of the run must be flat (the churn script front-loads its
  loss-producing faults so a leak-free build plateaus).
- **Replayable determinism.** All randomness (Poisson arrivals, GE
  draws) comes from the simulator's seeded RNG streams and all fault
  times are derived from the configured duration, so two runs with one
  seed produce byte-identical reports — ``BENCH_soak.json`` carries no
  wall-clock values and is diffable across commits.

``run_soak`` raises :class:`SoakBudgetError` on any violated budget
(``strict=False`` records violations in the report instead); the
``repro soak`` CLI and the CI ``soak-smoke`` job both run strict.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path

from .dataplane.pilot import PilotConfig, PilotTestbed
from .dataplane.programs import TransitionRule
from .faults.dynamics import LinkDynamics, Trajectory
from .faults.lossmodels import GilbertElliottLoss
from .faults.plan import FaultInjector, FaultPlan
from .netsim.engine import Simulator
from .netsim.units import MILLISECOND, SECOND
from .obs import Sampler, SloRule, Watchdog
from .telemetry.benchfmt import BenchResult

HOUR = 3600 * SECOND


class SoakBudgetError(RuntimeError):
    """A bounded-memory budget was violated during a strict soak.

    ``health`` carries the :class:`repro.obs.HealthReport` behind the
    message — the same violations, structured, with the engine time of
    each first breach.
    """

    def __init__(self, message: str, health=None) -> None:
        super().__init__(message)
        self.health = health


#: Fleet segment: per-flow message spacing.
FLEET_INTERVAL_NS = 500_000

# -- asserted budgets (the one some caller overrides,
# -- ``budget_registry_series``, is a SoakConfig field) ------------------------
#: Peak retransmit-buffer residency, as a fraction of capacity in
#: percent — FIFO eviction must keep ``bytes_used <= capacity``, so
#: anything over 100 means the bound itself broke.
BUDGET_RETX_OCCUPANCY_PCT = 100
#: Peak NAK-forward-guard population across all stacks + elements
#: (the guard's own LRU cap is 1024; a healthy soak stays far under).
BUDGET_GUARD_ENTRIES = 256
#: Peak flight-recorder retention: ring capacity + pinned anomaly
#: spans. Churn is front-loaded, so this bounds total anomalies too.
BUDGET_TRACE_EVENTS = 65536
#: Allowed growth of each sampled metric between the middle third's
#: peak and the final third's peak (0 = must be flat).
BUDGET_GROWTH = 0
#: Growth budget specific to retransmit-buffer bytes: the staggered
#: wipe cycles make residency a uniform sawtooth, but Poisson
#: arrival phase shifts its peak by a few packets between thirds.
#: This covers that quantization; a leak compounds every epoch and
#: blows far past it.
BUDGET_GROWTH_RETX_BYTES = 1024 * 1024
#: Growth budget specific to flight-recorder retention: packets
#: that went anomalous during the (front-loaded) loss windows still
#: pin the occasional late span — a ``buffer.evict`` of their cached
#: copy, bounded by stores-per-identity. Ring growth would blow
#: through this on the first leaky epoch.
BUDGET_GROWTH_TRACE_EVENTS = 256


@dataclass
class SoakConfig:
    """Parameters and budgets for one endurance run."""

    seed: int = 42
    #: Simulated duration of the pilot segment (default: one hour).
    duration_ns: int = 1 * HOUR
    #: Steady DAQ flow: one message every this many ns (flow 0).
    steady_interval_ns: int = 250 * MILLISECOND
    #: Poisson DAQ flow: mean inter-arrival (flow 1); 0 disables.
    poisson_mean_ns: int = 400 * MILLISECOND
    payload_size: int = 8000
    wan_delay_ns: int = 1 * MILLISECOND
    #: Sampling epochs across the run (memory metrics per boundary).
    epochs: int = 120
    #: Pilot buffer capacities — deliberately small enough that FIFO
    #: eviction saturates each buffer between wipe cycles: residency
    #: then rides the capacity bound and its sampled peak is identical
    #: in every third of the run.
    buffer_bytes: int = 8 * 1024 * 1024
    dtn1_buffer_bytes: int = 8 * 1024 * 1024
    #: Flight-recorder ring capacity (anomalous spans pin past it).
    trace_capacity: int = 4096
    #: Fleet segment: receiver-farm size and traffic (0 nodes skips it).
    fleet_nodes: int = 6
    fleet_flows: int = 8
    fleet_messages: int = 1200
    #: Node flap cycles (crash + restore) during the fleet stream.
    fleet_flaps: int = 3

    #: Asserted peak telemetry series count (label cardinality must not
    #: grow with time, only with topology size); the budgets nobody
    #: overrides are the module constants above.
    budget_registry_series: int = 512

    @property
    def epoch_ns(self) -> int:
        return max(1, self.duration_ns // self.epochs)

    @classmethod
    def ci(cls, seed: int = 42) -> "SoakConfig":
        """The CI smoke preset: ~60 s simulated, denser traffic so the
        same churn script (scaled into the shorter run) still bites."""
        return cls(
            seed=seed,
            duration_ns=60 * SECOND,
            steady_interval_ns=50 * MILLISECOND,
            poisson_mean_ns=80 * MILLISECOND,
            epochs=60,
            fleet_messages=600,
        )


@dataclass
class SoakReport:
    """Everything one soak measured (all plain ints: committed to
    ``BENCH_soak.json`` and diffed across commits, so nothing
    wall-clock-dependent belongs here)."""

    duration_ns: int
    samples: int
    messages_sent: int
    steady_sent: int
    poisson_sent: int
    delivered: int
    duplicates: int
    unrecovered: int
    naks_sent: int
    naks_served: int
    retransmissions: int
    lost_down: int
    lost_model: int
    faults_injected: int
    faults_fired: int
    mode_degradations: int
    mode_upgrades: int
    degraded_final: int
    mode_rewrites: int
    link_rate_changes: int
    link_delay_changes: int
    ge_drifts: int
    # -- sampled memory metrics (peaks over all epochs) ------------------------
    peak_retx_bytes: int
    peak_retx_entries: int
    peak_retx_occupancy_pct: int
    peak_guard_entries: int
    peak_trace_events: int
    peak_registry_series: int
    final_retx_bytes: int
    final_trace_events: int
    # -- growth slopes: final-third peak minus middle-third peak ---------------
    growth_retx_bytes: int
    growth_guard_entries: int
    growth_trace_events: int
    growth_registry_series: int
    budget_violations: int
    # -- fleet segment ---------------------------------------------------------
    fleet_messages: int
    fleet_delivered: int
    fleet_unrecovered: int
    fleet_flaps: int
    fleet_marks_down: int

    @property
    def complete(self) -> bool:
        return (
            self.unrecovered == 0
            and self.fleet_unrecovered == 0
            and self.budget_violations == 0
        )

    def metrics(self) -> dict[str, int]:
        """Flat metric dict, ready for :meth:`BenchResult.record`."""
        return {f.name: getattr(self, f.name) for f in dataclass_fields(self)}


@dataclass
class SoakSample:
    """One epoch-boundary snapshot of everything that could leak."""

    at_ns: int
    retx_bytes: int
    retx_entries: int
    guard_entries: int
    trace_events: int
    registry_series: int


def _build_churn(cfg: SoakConfig, pilot: PilotTestbed) -> tuple[FaultPlan, GilbertElliottLoss]:
    """The periodic churn script, derived entirely from ``duration_ns``.

    Loss-producing faults (flaps, GE windows, buffer kills) are
    confined to the first two thirds so the final third — where the
    growth-slope budgets apply — sees only clean churn (mode rewrites,
    steady traffic). A leak would still grow there; recovery backlog
    does not.
    """
    d = cfg.duration_ns
    plan = FaultPlan()
    wan = pilot.wan_link
    directory = pilot.directory
    assert directory is not None and pilot.dtn1_buffer is not None

    # Diurnal WAN rate curve: the link sags to 60% capacity mid-"day".
    rate = Trajectory.diurnal(
        low=wan.rate_bps * 6 // 10, high=wan.rate_bps, period_ns=d
    )
    plan.link_dynamics(
        LinkDynamics(wan, rate_bps=rate, start_ns=0, end_ns=d,
                     sample_every_ns=max(d // 96, 1))
    )

    # Two Gilbert-Elliott burst windows; the second one drifts.
    model = GilbertElliottLoss(
        p_good_to_bad=0.01, p_bad_to_good=0.3, loss_good=0.0, loss_bad=0.5
    )
    plan.set_loss_model(wan, model, at_ns=d // 10)
    plan.clear_loss_model(wan, at_ns=2 * d // 10)
    plan.set_loss_model(wan, model, at_ns=4 * d // 10)
    plan.ge_drift(
        model,
        [
            (45 * d // 100, {"p_good_to_bad": 0.02, "loss_bad": 0.7}),
            (55 * d // 100, {"p_good_to_bad": 0.005, "loss_bad": 0.3}),
        ],
        target=wan.name,
    )
    plan.clear_loss_model(wan, at_ns=6 * d // 10)

    # Short link flaps every ~14% of the run, first two thirds only.
    plan.link_flap(
        wan,
        first_down_ns=d // 7,
        down_ns=5 * MILLISECOND,
        period_ns=d // 7,
        count=4,
    )

    # Staggered buffer kill/restore cycles, alternating every d/12
    # (U280 on odd multiples through 11d/12, DTN 1 on even multiples
    # through 10d/12 — never both down). Each wipe resets that buffer's
    # residency, so combined residency sawtooths with the churn period
    # instead of growing toward capacity, and the sawtooth's peak is
    # the same in every third of the run: the growth-slope budget then
    # measures leaks, not accumulation.
    down_ns = max(1, d // 100)
    for i in range(6):
        at = (2 * i + 1) * d // 12
        plan.buffer_fail(pilot.buffer, at_ns=at, directory=directory)
        plan.buffer_restore(pilot.buffer, at_ns=at + down_ns, directory=directory)
        if i < 5:
            at = (2 * i + 2) * d // 12
            plan.buffer_fail(pilot.dtn1_buffer, at_ns=at, directory=directory)
            plan.buffer_restore(
                pilot.dtn1_buffer, at_ns=at + down_ns, directory=directory
            )

    # Directory liveness flaps taking *every* buffer down for 400 ms:
    # long enough that each sender transmitting inside the window
    # degrades, short enough (vs. the 2 ms-based recheck backoff) that
    # every degraded sender re-upgrades instead of giving up.
    for start in (3 * d // 10, 11 * d // 20):
        window = min(400 * MILLISECOND, max(1, d // 20))
        for address in (pilot.buffer.address, pilot.dtn1_buffer.address):
            plan.at(
                start,
                lambda a=address: directory.mark_down(a),
                kind="directory_down",
                target=address,
            )
            plan.at(
                start + window,
                lambda a=address: directory.mark_up(a),
                kind="directory_up",
                target=address,
            )

    # Mid-flow mode-map rewrites at the U55C, flip-flopping between the
    # deliver-check map and a bare age-recover map — these continue into
    # the final third (a rewrite is clean churn: no anomalies, no leak).
    age_recover_id = pilot.registry.by_name("age-recover").config_id
    original = TransitionRule(
        from_config_id=age_recover_id,
        to_mode="deliver-check",
        deadline_offset_ns=pilot.config.deadline_offset_ns,
        notify_addr=pilot.dtn1.ip,
    )
    shifted = TransitionRule(from_config_id=age_recover_id, to_mode="age-recover")
    for i in range(8):
        at = d // 9 + i * d // 9
        rules = [shifted] if i % 2 == 0 else [original]
        plan.mode_rewrite(pilot.u55c_transition, rules, at_ns=at)

    return plan, model


def _guard_entries(pilot: PilotTestbed) -> int:
    """Total NAK-forward-guard population across every stack + element."""
    return sum(
        len(part.responder.guard) for part in (*pilot.stacks, *pilot.elements)
    )


def _sample(pilot: PilotTestbed) -> SoakSample:
    assert pilot.dtn1_buffer is not None and pilot.metrics is not None
    return SoakSample(
        at_ns=pilot.sim.now,
        retx_bytes=pilot.buffer.bytes_used + pilot.dtn1_buffer.bytes_used,
        retx_entries=len(pilot.buffer) + len(pilot.dtn1_buffer),
        guard_entries=_guard_entries(pilot),
        trace_events=pilot.tracer.events_retained,
        registry_series=len(pilot.metrics),
    )


def _growth(values: list[int]) -> int:
    """Final-third peak minus middle-third peak (<= 0 means flat)."""
    n = len(values)
    if n < 3:
        return 0
    middle = values[n // 3 : 2 * n // 3]
    final = values[2 * n // 3 :]
    return max(final) - max(middle)


def _wire_sampler(cfg: SoakConfig, pilot: PilotTestbed) -> Sampler:
    """Leak gauges as an (unarmed) on-clock sampler.

    The soak drives :meth:`Sampler.sample_now` manually at each epoch
    boundary rather than arming it — no extra engine events, so the
    event sequence (and ``BENCH_soak.json``) is byte-identical to the
    pre-sampler harness.
    """
    assert pilot.dtn1_buffer is not None and pilot.metrics is not None
    capacity = cfg.buffer_bytes + cfg.dtn1_buffer_bytes
    sampler = Sampler(
        pilot.sim, every_ns=cfg.epoch_ns, capacity=cfg.epochs + 16
    )
    sampler.watch(
        "soak_retx_bytes",
        lambda: pilot.buffer.bytes_used + pilot.dtn1_buffer.bytes_used,
    )
    sampler.watch(
        "soak_retx_entries",
        lambda: len(pilot.buffer) + len(pilot.dtn1_buffer),
    )
    sampler.watch("soak_guard_entries", lambda: _guard_entries(pilot))
    sampler.watch(
        "soak_trace_events", lambda: pilot.tracer.events_retained
    )
    sampler.watch("soak_registry_series", lambda: len(pilot.metrics))
    # Floor division by a positive constant is monotone, so the maximum
    # of the per-epoch occupancy equals the occupancy of the peak bytes
    # — the exact quantity the legacy budget asserted.
    sampler.watch(
        "soak_retx_occupancy_pct",
        lambda: (pilot.buffer.bytes_used + pilot.dtn1_buffer.bytes_used)
        * 100
        // capacity,
    )
    return sampler


def _budget_rules(cfg: SoakConfig) -> list[SloRule]:
    """The soak budgets as declarative SLO rules.

    Declaration order matches the legacy bespoke check order, so the
    rendered violation list — and ``SoakBudgetError``'s message — is
    unchanged.
    """
    return [
        SloRule("soak_retx_occupancy_pct", "max", "<=", BUDGET_RETX_OCCUPANCY_PCT),
        SloRule("soak_guard_entries", "max", "<=", BUDGET_GUARD_ENTRIES),
        SloRule("soak_trace_events", "max", "<=", BUDGET_TRACE_EVENTS),
        SloRule("soak_registry_series", "max", "<=", cfg.budget_registry_series),
        SloRule("soak_growth_retx_bytes", "last", "<=", BUDGET_GROWTH_RETX_BYTES),
        SloRule("soak_growth_guard_entries", "last", "<=", BUDGET_GROWTH),
        SloRule("soak_growth_trace_events", "last", "<=", BUDGET_GROWTH_TRACE_EVENTS),
        SloRule("soak_growth_registry_series", "last", "<=", BUDGET_GROWTH),
        SloRule("soak_unrecovered", "last", "==", 0),
    ]


def _legacy_violation(event, pilot_unrecovered: int, fleet_unrecovered: int) -> str:
    """Render one health event in the historical violation wording."""
    metric, observed = event.metric, event.observed
    if metric == "soak_retx_occupancy_pct":
        return f"retx occupancy {observed}% > {event.threshold}%"
    if metric == "soak_guard_entries":
        return f"guard {observed} > {event.threshold}"
    if metric == "soak_trace_events":
        return f"trace {observed} > {event.threshold}"
    if metric == "soak_registry_series":
        return f"series {observed} > {event.threshold}"
    if metric.startswith("soak_growth_"):
        name = metric[len("soak_growth_"):]
        return f"{name} grew by {observed} in the final third"
    if metric == "soak_unrecovered":
        return (
            f"unrecovered losses: pilot={pilot_unrecovered} "
            f"fleet={fleet_unrecovered}"
        )
    return f"{event.rule} violated (observed {observed})"


def _run_fleet_segment(cfg: SoakConfig) -> tuple[int, int, int, int, int]:
    """Receiver-farm endurance leg with periodic node flaps.

    Returns (messages, delivered, unrecovered, flaps, marks_down).
    """
    if cfg.fleet_nodes <= 0 or cfg.fleet_messages <= 0:
        return (0, 0, 0, 0, 0)
    from .fleet import FarmConfig, ReceiverFarm

    farm = ReceiverFarm(
        sim=Simulator(seed=cfg.seed),
        config=FarmConfig(
            nodes=cfg.fleet_nodes,
            flows=cfg.fleet_flows,
            wan_delay_ns=cfg.wan_delay_ns,
        ),
    )
    span = farm.send_split(
        cfg.fleet_messages, cfg.payload_size, FLEET_INTERVAL_NS
    )
    flaps = max(0, cfg.fleet_flaps)
    plan = FaultPlan()
    for i in range(flaps):
        victim = (i * 2 + 1) % cfg.fleet_nodes
        down = span * (i + 1) // (flaps + 1)
        up = down + max(1, span // (4 * (flaps + 1)))
        plan.at(down, lambda v=victim: farm.crash_node(v),
                kind="node_crash", target=farm.nodes[victim].host.name)
        plan.at(up, lambda v=victim: farm.restore_node(v),
                kind="node_restore", target=farm.nodes[victim].host.name)
    injector = FaultInjector(farm.sim, plan)
    injector.arm()
    report = farm.run()
    return (
        report.messages_sent,
        report.delivered,
        report.unrecovered,
        flaps,
        report.marks_down,
    )


def run_soak(cfg: SoakConfig | None = None, strict: bool = True) -> SoakReport:
    """Run the endurance harness and return its report.

    ``strict=True`` (the default, and what CI runs) raises
    :class:`SoakBudgetError` the moment a size budget or growth slope
    is violated or any loss goes unrecovered; ``strict=False`` records
    the violation count in the report instead.
    """
    cfg = cfg or SoakConfig()
    pilot = PilotTestbed(
        sim=Simulator(seed=cfg.seed),
        config=PilotConfig(
            wan_delay_ns=cfg.wan_delay_ns,
            telemetry=True,
            trace=True,
            trace_capacity=cfg.trace_capacity,
            use_directory=True,
            reliable_from_dtn1=True,
            failover_buffer=True,
            buffer_bytes=cfg.buffer_bytes,
            dtn1_buffer_bytes=cfg.dtn1_buffer_bytes,
            flows=2,
        ),
    )
    # Heartbeats pace with the soak, not the default millisecond cadence
    # (an hour of 1 ms idle beats would dominate the event count).
    for sender in pilot.dtn1_senders:
        sender.config.heartbeat_interval_ns = max(
            sender.config.heartbeat_interval_ns, cfg.steady_interval_ns // 2
        )
    # Retire the U280's identify->age-recover upgrade rule: this build
    # already sequences at DTN 1, and during the brief gap between a
    # directory mark-up and a degraded sender's re-check the element
    # would otherwise upgrade identify packets out of its *own* sequence
    # register — a colliding sequence space under liveness churn.
    pilot.u280_transition.replace_rules([])

    plan, model = _build_churn(cfg, pilot)
    injector = FaultInjector(pilot.sim, plan)
    injector.tracer = pilot.tracer

    # -- traffic: steady flow 0 + Poisson flow 1 -------------------------------
    steady_sent = 0
    t = 0
    while t < cfg.duration_ns:
        pilot.sim.schedule(t, pilot.send_message, cfg.payload_size, 0)
        steady_sent += 1
        t += cfg.steady_interval_ns
    poisson_sent = 0
    if cfg.poisson_mean_ns > 0:
        rng = pilot.sim.rng("soak:poisson")
        t = 0
        while True:
            t += max(1, round(rng.expovariate(1.0 / cfg.poisson_mean_ns)))
            if t >= cfg.duration_ns:
                break
            pilot.sim.schedule(t, pilot.send_message, cfg.payload_size, 1)
            poisson_sent += 1

    injector.arm()

    # -- chunked run with epoch sampling ---------------------------------------
    # Budgets live in the observability layer now: the sampler snapshots
    # every leak gauge at each epoch boundary (driven manually — no
    # engine events, so seeded runs replay byte-identically) and the
    # watchdog evaluates the budget rules on each sample as it lands,
    # pinning the flight recorder at the first breach.
    sampler = _wire_sampler(cfg, pilot)
    watchdog = Watchdog(_budget_rules(cfg), sampler=sampler, tracer=pilot.tracer)
    epoch = cfg.epoch_ns
    boundary = epoch
    while boundary <= cfg.duration_ns:
        pilot.sim.run(until_ns=boundary)
        sampler.sample_now()
        boundary += epoch
    # Drain: remaining recovery, rechecks, closing heartbeats.
    pilot.run(reconcile=False)
    # Degraded windows relay unsequenced messages, so reconciliation is
    # against each sender's *sequenced* space, not relay counts.
    for fid in range(pilot.config.flows):
        pilot.dtn2_receiver.request_missing(
            pilot.experiment_id, pilot.dtn1_senders[fid].next_seq, flow_id=fid
        )
    pilot.sim.run()
    base = pilot.report()
    final = _sample(pilot)

    # -- budgets ---------------------------------------------------------------
    # Growth slopes come from the epoch-boundary series alone (the
    # post-drain snapshot is not an epoch), exactly as before.
    values = lambda metric: sampler.series(metric).values()  # noqa: E731
    peak_retx_bytes = max(values("soak_retx_bytes"))
    growths = {
        "retx_bytes": _growth(values("soak_retx_bytes")),
        "guard_entries": _growth(values("soak_guard_entries")),
        "trace_events": _growth(values("soak_trace_events")),
        "registry_series": _growth(values("soak_registry_series")),
    }
    peak_retx_entries = max(values("soak_retx_entries"))
    peak_occupancy = max(values("soak_retx_occupancy_pct"))
    peak_guard = max(values("soak_guard_entries"))
    # The trace/series peaks include the post-drain state; fold the
    # final snapshot into those series so the ``max`` rules see it.
    sampler.record("soak_trace_events", final.trace_events)
    sampler.record("soak_registry_series", final.registry_series)
    peak_trace = max(values("soak_trace_events"))
    peak_series = max(values("soak_registry_series"))
    for name, value in growths.items():
        sampler.record(f"soak_growth_{name}", value)
    fleet = _run_fleet_segment(cfg)
    sampler.record("soak_unrecovered", base.unrecovered + fleet[2])
    watchdog.check()
    health = watchdog.report()

    violations = [
        _legacy_violation(event, base.unrecovered, fleet[2])
        for event in health.events
    ]
    if strict and violations:
        raise SoakBudgetError("; ".join(violations), health=health)

    senders = pilot.dtn1_senders
    report = SoakReport(
        duration_ns=cfg.duration_ns,
        samples=sampler.ticks,
        messages_sent=base.messages_sent,
        steady_sent=steady_sent,
        poisson_sent=poisson_sent,
        delivered=base.delivered,
        duplicates=base.duplicates,
        unrecovered=base.unrecovered,
        naks_sent=base.naks_sent,
        naks_served=base.naks_served,
        retransmissions=base.retransmissions,
        lost_down=pilot.wan_link.stats.lost_down,
        lost_model=pilot.wan_link.stats.lost_model,
        faults_injected=len(plan),
        faults_fired=len(injector.fired),
        mode_degradations=sum(s.stats.mode_degradations for s in senders),
        mode_upgrades=sum(s.stats.mode_upgrades for s in senders),
        degraded_final=sum(s.stats.degraded_final for s in senders),
        mode_rewrites=pilot.u55c_transition.rewrites,
        link_rate_changes=pilot.wan_link.stats.rate_changes,
        link_delay_changes=pilot.wan_link.stats.delay_changes,
        ge_drifts=model.drifts,
        peak_retx_bytes=peak_retx_bytes,
        peak_retx_entries=peak_retx_entries,
        peak_retx_occupancy_pct=peak_occupancy,
        peak_guard_entries=peak_guard,
        peak_trace_events=peak_trace,
        peak_registry_series=peak_series,
        final_retx_bytes=final.retx_bytes,
        final_trace_events=final.trace_events,
        growth_retx_bytes=growths["retx_bytes"],
        growth_guard_entries=growths["guard_entries"],
        growth_trace_events=growths["trace_events"],
        growth_registry_series=growths["registry_series"],
        budget_violations=len(violations),
        fleet_messages=fleet[0],
        fleet_delivered=fleet[1],
        fleet_unrecovered=fleet[2],
        fleet_flaps=fleet[3],
        fleet_marks_down=fleet[4],
    )
    # Structured health rides along for harnesses and the CLI; it is
    # not a dataclass field, so ``metrics()`` — and the byte-identical
    # BENCH_soak.json contract — are untouched.
    report.health = health
    return report


def write_bench(report: SoakReport, cfg: SoakConfig, directory: str | Path = ".") -> Path:
    """Write ``BENCH_soak.json`` — simulation-derived values only, so
    the file is byte-identical for identical seeds."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    bench = BenchResult(
        name="soak",
        params={
            "duration_ns": cfg.duration_ns,
            "steady_interval_ns": cfg.steady_interval_ns,
            "poisson_mean_ns": cfg.poisson_mean_ns,
            "payload_size": cfg.payload_size,
            "wan_delay_ns": cfg.wan_delay_ns,
            "epochs": cfg.epochs,
        },
        seed=cfg.seed,
    )
    bench.record("soak", **report.metrics())
    return bench.write(directory)
