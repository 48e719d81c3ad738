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

``run_soak`` returns each violated budget as a watchdog health event on
``report.health``, counted in ``budget_violations`` (so the report is
not ``complete``); ``repro soak`` prints them and exits 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .dataplane.pilot import PilotConfig, PilotTestbed
from .faults.chaos import FaultCounters, shift_maps
from .faults.dynamics import LinkDynamics, Trajectory
from .netsim.loss import GilbertElliottLoss
from .faults.plan import FaultInjector, FaultPlan
from .netsim.engine import Simulator
from .netsim.units import MILLISECOND, SECOND
from .obs import Sampler, SloRule, Watchdog
from .telemetry.benchfmt import BenchResult

HOUR = 3600 * SECOND

#: Message size of both segments, and each segment's WAN one-way delay.
PAYLOAD_SIZE = 8000
WAN_DELAY_NS = 1 * MILLISECOND
#: Capacity of each pilot buffer (U280 and DTN 1) — deliberately small
#: enough that FIFO eviction saturates each buffer between wipe cycles:
#: residency then rides the capacity bound and its sampled peak is
#: identical in every third of the run.
BUFFER_BYTES = 8 * 1024 * 1024
#: Flight-recorder ring capacity (anomalous spans pin past it).
TRACE_CAPACITY = 4096
#: Fleet segment: concurrent flows, per-flow message spacing, and node
#: flap cycles (crash + restore) during its stream.
FLEET_FLOWS = 8
FLEET_INTERVAL_NS = 500_000
FLEET_FLAPS = 3

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
    #: Sampling epochs across the run (memory metrics per boundary).
    epochs: int = 120
    #: Fleet segment: receiver-farm size and traffic (0 nodes skips it).
    fleet_nodes: int = 6
    fleet_messages: int = 1200

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
class SoakReport(FaultCounters):
    """Everything one soak measured, committed to ``BENCH_soak.json``."""

    duration_ns: int
    samples: int
    steady_sent: int
    poisson_sent: int
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
            plan.mark_down(directory, address, start)
            plan.mark_up(directory, address, start + window)

    # Mid-flow mode-map rewrites at the U55C, flip-flopping between the
    # deliver-check map and a bare age-recover map — these continue into
    # the final third (a rewrite is clean churn: no anomalies, no leak).
    original, shifted = shift_maps(pilot)
    for i in range(8):
        at = d // 9 + i * d // 9
        rules = shifted if i % 2 == 0 else original
        plan.mode_rewrite(pilot.u55c_transition, rules, at_ns=at)

    return plan, model


def _growth(values: list[int]) -> int:
    """Final-third peak minus middle-third peak (<= 0 means flat)."""
    n = len(values)
    if n < 3:
        return 0
    middle = values[n // 3 : 2 * n // 3]
    final = values[2 * n // 3 :]
    return max(final) - max(middle)


def _leak_gauges(pilot: PilotTestbed) -> dict:
    """Everything that could leak, as readers by sampler series name."""
    u280, dtn1 = pilot.buffer, pilot.dtn1_buffer
    retx_bytes = lambda: u280.bytes_used + dtn1.bytes_used  # noqa: E731
    return {
        "soak_retx_bytes": retx_bytes,
        "soak_retx_entries": lambda: len(u280) + len(dtn1),
        # NAK-forward-guard population across every stack + element.
        "soak_guard_entries": lambda: sum(
            len(part.responder.guard) for part in (*pilot.stacks, *pilot.elements)
        ),
        "soak_trace_events": lambda: pilot.tracer.events_retained,
        "soak_registry_series": lambda: len(pilot.metrics),
        # Floor division by a positive constant is monotone, so the
        # maximum of the per-epoch occupancy is the peak bytes' occupancy.
        "soak_retx_occupancy_pct": lambda: retx_bytes() * 100 // (2 * BUFFER_BYTES),
    }


def _budget_rules(cfg: SoakConfig) -> list[SloRule]:
    """The soak budgets as declarative SLO rules, in check order."""
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


def _run_fleet_segment(cfg: SoakConfig) -> dict[str, int]:
    """Receiver-farm endurance leg with periodic node flaps: the
    report's ``fleet_*`` fields."""
    if cfg.fleet_nodes <= 0 or cfg.fleet_messages <= 0:
        return dict.fromkeys(
            ("fleet_messages", "fleet_delivered", "fleet_unrecovered", "fleet_flaps",
             "fleet_marks_down"), 0,
        )
    from .fleet import FarmConfig, ReceiverFarm

    farm = ReceiverFarm(Simulator(seed=cfg.seed), FarmConfig(
        nodes=cfg.fleet_nodes, flows=FLEET_FLOWS, wan_delay_ns=WAN_DELAY_NS
    ))
    span = farm.send_split(cfg.fleet_messages, PAYLOAD_SIZE, FLEET_INTERVAL_NS)
    plan = FaultPlan()
    for i in range(FLEET_FLAPS):
        victim = (i * 2 + 1) % cfg.fleet_nodes
        down = span * (i + 1) // (FLEET_FLAPS + 1)
        plan.node_crash(farm, victim, down)
        plan.node_restore(farm, victim, down + max(1, span // (4 * (FLEET_FLAPS + 1))))
    FaultInjector(farm.sim, plan).arm()
    report = farm.run()
    return dict(
        fleet_messages=report.messages_sent,
        fleet_delivered=report.delivered,
        fleet_unrecovered=report.unrecovered,
        fleet_flaps=FLEET_FLAPS,
        fleet_marks_down=report.marks_down,
    )


def run_soak(cfg: SoakConfig | None = None) -> SoakReport:
    """Run the endurance harness and return its report; ``report.health``
    holds a watchdog health event per violated budget."""
    cfg = cfg or SoakConfig()
    pilot = PilotTestbed(Simulator(seed=cfg.seed), PilotConfig(
        wan_delay_ns=WAN_DELAY_NS,
        telemetry=True,
        trace=True,
        trace_capacity=TRACE_CAPACITY,
        buffers="failover",
        buffer_bytes=BUFFER_BYTES,
        dtn1_buffer_bytes=BUFFER_BYTES,
        flows=2,
    ))
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
        pilot.sim.schedule(t, pilot.send_message, PAYLOAD_SIZE, 0)
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
            pilot.sim.schedule(t, pilot.send_message, PAYLOAD_SIZE, 1)
            poisson_sent += 1

    injector.arm()

    # -- chunked run with epoch sampling ---------------------------------------
    # Budgets live in the observability layer now: the sampler snapshots
    # every leak gauge at each epoch boundary (driven manually — no
    # engine events, so seeded runs replay byte-identically) and the
    # watchdog evaluates the budget rules on each sample as it lands,
    # pinning the flight recorder at the first breach.
    gauges = _leak_gauges(pilot)
    sampler = Sampler(pilot.sim, every_ns=cfg.epoch_ns, capacity=cfg.epochs + 16)
    for name, read in gauges.items():
        sampler.watch(name, read)
    watchdog = Watchdog(_budget_rules(cfg), sampler=sampler, tracer=pilot.tracer)
    epoch = cfg.epoch_ns
    boundary = epoch
    while boundary <= cfg.duration_ns:
        pilot.sim.run(until_ns=boundary)
        sampler.sample_now()
        boundary += epoch
    # Drain: remaining recovery, rechecks, closing heartbeats, and the
    # reconciliation against each sender's sequenced space.
    base = pilot.run()

    # -- budgets ---------------------------------------------------------------
    # Growth slopes and the first peaks come from the epoch-boundary
    # series alone (the post-drain reading is not an epoch).
    values = lambda metric: sampler.series(f"soak_{metric}").values()  # noqa: E731
    growths = {
        name: _growth(values(name))
        for name in ("retx_bytes", "guard_entries", "trace_events", "registry_series")
    }
    peaks = {
        name: max(values(name))
        for name in ("retx_bytes", "retx_entries", "retx_occupancy_pct", "guard_entries")
    }
    final_retx_bytes = gauges["soak_retx_bytes"]()
    final_trace_events = gauges["soak_trace_events"]()
    # The trace/series peaks include the post-drain state; fold the
    # final reading into those series so the ``max`` rules see it.
    sampler.record("soak_trace_events", final_trace_events)
    sampler.record("soak_registry_series", gauges["soak_registry_series"]())
    for name in ("trace_events", "registry_series"):
        peaks[name] = max(values(name))
    for name, value in growths.items():
        sampler.record(f"soak_growth_{name}", value)
    fleet = _run_fleet_segment(cfg)
    sampler.record("soak_unrecovered", base.unrecovered + fleet["fleet_unrecovered"])
    watchdog.check()
    health = watchdog.report()

    report = SoakReport.measure(
        pilot, base, plan, injector,
        duration_ns=cfg.duration_ns,
        samples=sampler.ticks,
        steady_sent=steady_sent,
        poisson_sent=poisson_sent,
        ge_drifts=model.drifts,
        **{f"peak_{name}": value for name, value in peaks.items()},
        final_retx_bytes=final_retx_bytes,
        final_trace_events=final_trace_events,
        **{f"growth_{name}": value for name, value in growths.items()},
        budget_violations=health.violations,
        **fleet,
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
            "payload_size": PAYLOAD_SIZE,
            "wan_delay_ns": WAN_DELAY_NS,
            "epochs": cfg.epochs,
        },
        seed=cfg.seed,
    )
    bench.record("soak", **report.metrics())
    return bench.write(directory)
