"""Chaos harness: the Fig. 4 pilot under named fault scenarios.

Each scenario builds the pilot testbed, arms a :class:`FaultPlan`
against it, runs a message stream through the fault window, and
distils recovery metrics: time-to-recover, deliveries before/during/
after the window, unrecovered losses, degradations, failovers. All
randomness comes from the simulator seed, so the same seed reproduces
byte-identical metrics — chaos runs are regression tests, not dice.

Scenarios
---------

``link-flap``
    The WAN link goes down/up twice mid-stream. Packets (and NAKs) in
    flight during an outage are dropped at the link; recovery rides the
    normal NAK path once the link returns.
``burst-loss``
    A Gilbert–Elliott burst-loss model is installed on the WAN link for
    the middle of the stream, then removed — correlated loss bursts
    instead of independent drops.
``element-restart``
    The Tofino2 crashes mid-stream and restarts a little later with all
    stateful registers wiped; traffic arriving meanwhile is dropped.
``buffer-failover``
    The directory-wired pilot (``use_directory``): the U280's HBM
    buffer is killed mid-stream and marked down in the directory. With
    the DTN 1 failover buffer registered (``failover=True``) the Tofino
    re-stamps flows to it and recovery completes with zero unrecovered;
    without it the DTN 1 sender degrades to identification-only
    (announced, bounded NAKs, no storm).
``fleet-node-crash``
    The receiver-farm build (:mod:`repro.fleet`): one of N receiver
    DTNs crashes mid-stream. The fleet controller marks it down at the
    next sync tick, the balancer redirects its bound windows to
    survivors, and calendar-directed reconciliation repairs everything
    the dead node absorbed — zero unrecovered, with the crash-to-repair
    gap reported as time-to-recover.
``link-drift``
    Time-varying WAN: a :class:`~repro.faults.dynamics.LinkDynamics`
    driver ramps the propagation delay to 2× (piecewise-linear) and
    steps the rate down and back, while a Gilbert–Elliott model is
    installed and its parameters *drift* on a schedule. Exercises the
    delay-adaptive retransmit timeout: the receiver re-derives its RTO
    from the delay the path has now, not the one it started with.
``mode-rewrite-churn``
    Mid-flow shape-shifting under churn: a multi-flow directory build
    where the U55C's mode-transition map is rewritten mid-stream
    (deliver-check → age-recover and back) while buffer liveness flaps
    degrade and re-upgrade the senders. Every flow's payload digests
    are checked end to end — the rewrite must deliver all in-flight
    flows with zero content corruption.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path

from ..core.features import MsgType
from ..dataplane.pilot import DAQ_DELAY_NS, LINK_RATE_BPS, PilotConfig, PilotTestbed
from ..dataplane.programs import TransitionRule
from ..netsim.engine import Simulator
from ..netsim.units import MICROSECOND, MILLISECOND
from ..telemetry.benchfmt import BenchResult
from ..telemetry.registry import MetricsRegistry
from .dynamics import LinkDynamics, Trajectory
from .lossmodels import GilbertElliottLoss
from .plan import FaultInjector, FaultPlan

#: The named scenarios, in the order ``--scenario all`` runs them.
SCENARIOS = (
    "link-flap",
    "burst-loss",
    "element-restart",
    "buffer-failover",
    "fleet-node-crash",
    "link-drift",
    "mode-rewrite-churn",
)


#: ``mode-rewrite-churn``: concurrent flows whose in-flight state must
#: survive the mid-flow mode-map rewrite.
REWRITE_FLOWS = 3


@dataclass
class ChaosConfig:
    """Parameters for one chaos run."""

    scenario: str = "link-flap"
    messages: int = 500
    payload_size: int = 8000
    interval_ns: int = 2 * MICROSECOND
    seed: int = 42
    #: ``buffer-failover`` only: register the DTN 1 failover buffer.
    #: ``False`` is the degradation variant — no live buffer remains
    #: after the kill, so the sender must degrade gracefully.
    failover: bool = True
    wan_delay_ns: int = 1 * MILLISECOND
    #: Background WAN corruption loss for ``buffer-failover`` (without
    #: some loss there is nothing for a retransmission buffer to do).
    wan_loss_rate: float = 0.02
    #: ``fleet-node-crash`` only: farm size and concurrency.
    fleet_nodes: int = 8
    fleet_flows: int = 16
    #: On-clock sampling period for the observability sampler (0 = no
    #: sampler at all — the byte-identical legacy build). Enabling it
    #: also enables a bounded flight-recorder tracer so SLO breaches
    #: have a timeline to pin.
    sample_every_ns: int = 0
    #: Declarative SLO rules (``repro.obs.SloRule.parse`` syntax),
    #: evaluated on samples at engine time; requires ``sample_every_ns``.
    slo: tuple[str, ...] = ()

    @property
    def stream_ns(self) -> int:
        """Duration of the send stream (fault times scale with this)."""
        return self.messages * self.interval_ns


@dataclass
class ChaosReport:
    """Recovery metrics for one scenario run (all plain ints: these are
    the values committed to ``BENCH_chaos.json`` and diffed across
    commits, so nothing wall-clock-dependent belongs here)."""

    messages_sent: int
    delivered: int
    delivered_before: int
    delivered_during: int
    delivered_after: int
    duplicates: int
    unrecovered: int
    naks_sent: int
    naks_served: int
    failover_served: int
    retransmissions: int
    faults_injected: int
    faults_fired: int
    fault_start_ns: int
    fault_end_ns: int
    time_to_recover_ns: int
    lost_down: int
    lost_model: int
    mode_degradations: int
    mode_upgrades: int
    degraded_final: int
    element_degradations: int
    buffer_failovers: int
    directory_marks_down: int
    link_rate_changes: int
    link_delay_changes: int
    mode_rewrites: int
    content_mismatches: int

    @property
    def complete(self) -> bool:
        return self.delivered >= self.messages_sent and self.unrecovered == 0

    def metrics(self) -> dict[str, int]:
        """Flat metric dict, ready for :meth:`BenchResult.record`."""
        return {f.name: getattr(self, f.name) for f in dataclass_fields(self)}


@dataclass
class ChaosRun:
    """A finished chaos run: the metrics plus the live objects behind
    them, for tests and telemetry export."""

    scenario: str
    config: ChaosConfig
    report: ChaosReport
    #: The testbed behind the run: a :class:`PilotTestbed`, or a
    #: :class:`~repro.fleet.farm.ReceiverFarm` for ``fleet-node-crash``.
    #: ``None`` for runs that crossed a process boundary (sharded
    #: campaigns detach live simulation state before pickling).
    pilot: object
    injector: FaultInjector | None
    metrics: MetricsRegistry | None
    #: :class:`repro.obs.HealthReport` when the run carried SLO rules
    #: (picklable, so it survives sharded campaigns); ``None`` otherwise.
    health: object | None = None


def _pilot_config(cfg: ChaosConfig) -> PilotConfig:
    # With sampling off (the default, and every committed benchmark)
    # these kwargs are all defaults, so the build — and BENCH_chaos.json
    # — is byte-identical to the pre-observability code.
    obs = dict(
        sample_every_ns=cfg.sample_every_ns or None,
        trace=bool(cfg.sample_every_ns),
        trace_capacity=4096 if cfg.sample_every_ns else None,
    )
    if cfg.scenario == "buffer-failover":
        return PilotConfig(
            wan_delay_ns=cfg.wan_delay_ns,
            wan_loss_rate=cfg.wan_loss_rate,
            telemetry=True,
            use_directory=True,
            reliable_from_dtn1=True,
            failover_buffer=cfg.failover,
            **obs,
        )
    return PilotConfig(wan_delay_ns=cfg.wan_delay_ns, telemetry=True, **obs)


def _build_plan(cfg: ChaosConfig, pilot: PilotTestbed) -> FaultPlan:
    stream = cfg.stream_ns
    plan = FaultPlan()
    if cfg.scenario == "link-flap":
        plan.link_flap(
            pilot.wan_link,
            first_down_ns=stream // 4,
            down_ns=stream // 5,
            period_ns=stream // 2,
            count=2,
        )
    elif cfg.scenario == "burst-loss":
        # Hot enough that bursts reliably hit the window even for short
        # CI streams (~75 packets): E[bursts] = packets * p_g2b.
        model = GilbertElliottLoss(
            p_good_to_bad=0.05, p_bad_to_good=0.2, loss_good=0.0, loss_bad=0.7
        )
        plan.set_loss_model(pilot.wan_link, model, at_ns=stream // 4)
        plan.clear_loss_model(pilot.wan_link, at_ns=3 * stream // 4)
    elif cfg.scenario == "element-restart":
        plan.element_crash(pilot.tofino, at_ns=stream // 3)
        plan.element_restart(pilot.tofino, at_ns=2 * stream // 3)
    elif cfg.scenario == "buffer-failover":
        plan.buffer_fail(pilot.buffer, at_ns=stream // 2, directory=pilot.directory)
    elif cfg.scenario == "link-drift":
        # Time-varying WAN: delay ramps linearly to 2x across the middle
        # of the stream (and stays there), while the rate steps down to
        # 40% and back. Layered on top, a Gilbert-Elliott model whose
        # parameters drift worse and then recover — so the receiver's
        # retransmit timeout is exercised against the delay the path has
        # *now*, not the one the stream started with.
        wan = pilot.wan_link
        base_delay = cfg.wan_delay_ns
        delay = Trajectory(
            [
                (0, base_delay),
                (stream // 4, base_delay),
                (3 * stream // 4, 2 * base_delay),
            ],
            interpolate="linear",
        )
        rate = Trajectory(
            [
                (0, wan.rate_bps),
                (stream // 3, wan.rate_bps * 2 // 5),
                (2 * stream // 3, wan.rate_bps),
            ],
            interpolate="step",
        )
        plan.link_dynamics(
            LinkDynamics(
                wan,
                rate_bps=rate,
                delay_ns=delay,
                start_ns=0,
                end_ns=stream,
                sample_every_ns=max(stream // 32, 1),
            )
        )
        model = GilbertElliottLoss(
            p_good_to_bad=0.03, p_bad_to_good=0.25, loss_good=0.0, loss_bad=0.5
        )
        plan.set_loss_model(wan, model, at_ns=stream // 4)
        plan.ge_drift(
            model,
            [
                (stream // 2, {"p_good_to_bad": 0.05, "loss_bad": 0.7}),
                (5 * stream // 8, {"p_good_to_bad": 0.02, "loss_bad": 0.3}),
            ],
            target=wan.name,
        )
        plan.clear_loss_model(wan, at_ns=3 * stream // 4)
    else:
        raise ValueError(f"unknown scenario {cfg.scenario!r} (one of {SCENARIOS})")
    return plan


def _tap_deliveries(pilot: PilotTestbed, also=None) -> list[tuple[int, MsgType]]:
    """Observe every delivery at DTN 2 with its time and message type
    (``also`` sees each packet too), without disturbing the pilot's own
    callback."""
    deliveries: list[tuple[int, MsgType]] = []
    inner = pilot.dtn2_receiver.on_message

    def observe(packet, header) -> None:
        deliveries.append((pilot.sim.now, header.msg_type))
        if also is not None:
            also(packet, header)
        if inner is not None:
            inner(packet, header)

    pilot.dtn2_receiver.on_message = observe
    return deliveries


def _measure(
    cfg: ChaosConfig,
    testbed,
    base,
    plan: FaultPlan,
    injector: FaultInjector,
    deliveries: list[tuple[int, MsgType]],
    *,
    wan_links,
    marks_down: int,
    element_rewrites: int = 0,
    content_mismatches: int = 0,
) -> ChaosRun:
    """Distil a finished run (``base`` is the testbed's own report) into
    recovery metrics — the one place a :class:`ChaosReport` is built,
    for every scenario on either egress. ``deliveries`` is the run's
    ``(time, msg_type, ...)`` log; ``wan_links`` are the legs the faults
    hit; ``marks_down`` counts liveness marks (directory or controller)."""
    fault_start, fault_end = plan.start_ns, plan.end_ns
    times = [t for t, *_ in deliveries]
    # Time to recover: how long past the end of the fault window the
    # last repair (retransmitted delivery) arrived. 0 = no repairs
    # needed after the window, i.e. instant recovery.
    retx_times = [t for t, m, *_ in deliveries if m == MsgType.RETX_DATA]
    recovered_at = max(retx_times, default=fault_end)
    senders = testbed.dtn1_senders
    failover = testbed.dtn1_buffer
    report = ChaosReport(
        messages_sent=base.messages_sent,
        delivered=base.delivered,
        delivered_before=sum(1 for t in times if t < fault_start),
        delivered_during=sum(1 for t in times if fault_start <= t <= fault_end),
        delivered_after=sum(1 for t in times if t > fault_end),
        duplicates=sum(r.stats.duplicates for r in testbed.receivers),
        unrecovered=base.unrecovered,
        naks_sent=base.naks_sent,
        naks_served=base.naks_served,
        failover_served=failover.stats.hits if failover is not None else 0,
        retransmissions=base.retransmissions,
        faults_injected=len(plan),
        faults_fired=len(injector.fired),
        fault_start_ns=fault_start,
        fault_end_ns=fault_end,
        time_to_recover_ns=max(0, recovered_at - fault_end),
        lost_down=sum(link.stats.lost_down for link in wan_links),
        lost_model=sum(link.stats.lost_model for link in wan_links),
        mode_degradations=sum(s.stats.mode_degradations for s in senders),
        mode_upgrades=sum(s.stats.mode_upgrades for s in senders),
        degraded_final=sum(s.stats.degraded_final for s in senders),
        element_degradations=testbed.u280_transition.degradations,
        buffer_failovers=testbed.tofino_nearest.failovers,
        directory_marks_down=marks_down,
        link_rate_changes=sum(link.stats.rate_changes for link in wan_links),
        link_delay_changes=sum(link.stats.delay_changes for link in wan_links),
        mode_rewrites=element_rewrites + sum(s.stats.mode_rewrites for s in senders),
        content_mismatches=content_mismatches,
    )
    return ChaosRun(
        scenario=cfg.scenario,
        config=cfg,
        report=report,
        pilot=testbed,
        injector=injector,
        metrics=_collect_metrics(testbed),
    )


def _measure_pilot(cfg, pilot: PilotTestbed, base, plan, injector, deliveries,
                   content_mismatches: int = 0) -> ChaosRun:
    """:func:`_measure` with the Fig. 4 egress's fault surfaces filled in."""
    directory = pilot.directory
    return _measure(
        cfg, pilot, base, plan, injector, deliveries,
        wan_links=[pilot.wan_link],
        marks_down=directory.marks_down if directory is not None else 0,
        element_rewrites=pilot.u55c_transition.rewrites,
        content_mismatches=content_mismatches,
    )


def run_fleet_chaos(cfg: ChaosConfig) -> ChaosRun:
    """The receiver-farm crash scenario: build, crash, repair, measure."""
    # Imported here, not at module top: fleet builds on faults (the
    # controller consumes BufferDirectory-style marks), so the reverse
    # import must stay lazy.
    from ..fleet import FarmConfig, ReceiverFarm

    farm = ReceiverFarm(
        sim=Simulator(seed=cfg.seed),
        config=FarmConfig(
            nodes=cfg.fleet_nodes,
            flows=cfg.fleet_flows,
            wan_delay_ns=cfg.wan_delay_ns,
            telemetry=True,
        ),
    )
    victim = farm.nodes[cfg.fleet_nodes // 2]
    # The message budget is split across the flows (all sending in
    # parallel), so the stream actually spans one flow's share — the
    # crash must land inside *that* window, half an interval off the
    # midpoint so it never coincides with a sync tick (the detection
    # gap must be nonzero for redirect-on-crash to be exercised).
    span = farm.send_split(cfg.messages, cfg.payload_size, cfg.interval_ns)
    plan = FaultPlan()
    plan.at(
        span // 2 + cfg.interval_ns // 2,
        lambda: farm.crash_node(victim.index),
        kind="node_crash",
        target=victim.host.name,
    )
    injector = FaultInjector(farm.sim, plan)
    injector.arm()
    base = farm.run()
    return _measure(
        cfg, farm, base, plan, injector, farm.deliveries,
        wan_links=[victim.link],
        # The controller's liveness marks play the directory's role.
        marks_down=farm.controller.stats.marks_down,
    )


def run_chaos(cfg: ChaosConfig) -> ChaosRun:
    """Build, fault, run, and measure one scenario."""
    if cfg.scenario == "fleet-node-crash":
        return run_fleet_chaos(cfg)
    if cfg.scenario == "mode-rewrite-churn":
        return run_mode_rewrite_chaos(cfg)
    pilot = PilotTestbed(sim=Simulator(seed=cfg.seed), config=_pilot_config(cfg))
    plan = _build_plan(cfg, pilot)
    injector = FaultInjector(pilot.sim, plan)
    watchdog = None
    if cfg.slo:
        if pilot.sampler is None:
            raise ValueError("slo rules need sample_every_ns > 0")
        from ..obs import Watchdog

        watchdog = Watchdog(cfg.slo, sampler=pilot.sampler, tracer=pilot.tracer)

    deliveries = _tap_deliveries(pilot)
    pilot.send_stream(
        cfg.messages, payload_size=cfg.payload_size, interval_ns=cfg.interval_ns
    )
    injector.arm()
    run = _measure_pilot(cfg, pilot, pilot.run(), plan, injector, deliveries)
    if watchdog is not None:
        watchdog.check()
        run.health = watchdog.report()
    return run


def _rewrite_payload(fid: int, index: int, size: int) -> bytes:
    """Deterministic per-message payload for content verification."""
    stamp = f"mrc:{fid}:{index}:".encode()
    return (stamp * (size // len(stamp) + 1))[:size]


def run_mode_rewrite_chaos(cfg: ChaosConfig) -> ChaosRun:
    """Mid-flow shape-shifting under churn, with content verification.

    A multi-flow directory build where, mid-stream: a burst-loss window
    seeds retransmit state; both buffers' directory liveness flaps (so
    every sender degrades and later upgrades); and the U55C's mode map
    is rewritten *while that churn is in flight* — first shifting the
    WAN→DTN2 segment from deliver-check down to age-recover, then back.
    Liveness flaps are control-plane only (buffer contents survive), so
    every sequenced loss must still be recoverable: the acceptance bar
    is ``unrecovered == 0`` **and** a byte-exact payload-digest match
    per flow (``content_mismatches == 0``).

    Reconciliation is per flow against each sender's ``next_seq`` — the
    degraded (identification-only) window relays messages that consume
    no sequence numbers, so relay counts deliberately over-count the
    sequenced space there.
    """
    flows = REWRITE_FLOWS
    pilot = PilotTestbed(
        sim=Simulator(seed=cfg.seed),
        config=PilotConfig(
            wan_delay_ns=cfg.wan_delay_ns,
            wan_loss_rate=0.0,
            telemetry=True,
            use_directory=True,
            reliable_from_dtn1=True,
            failover_buffer=True,
            flows=flows,
        ),
    )
    stream = cfg.stream_ns
    directory = pilot.directory
    assert directory is not None and pilot.dtn1_buffer is not None

    # -- the churn script ------------------------------------------------------
    age_recover_id = pilot.registry.by_name("age-recover").config_id
    original_rule = TransitionRule(
        from_config_id=age_recover_id,
        to_mode="deliver-check",
        deadline_offset_ns=pilot.config.deadline_offset_ns,
        notify_addr=pilot.dtn1.ip,
    )
    shifted_rule = TransitionRule(
        from_config_id=age_recover_id, to_mode="age-recover"
    )
    model = GilbertElliottLoss(
        p_good_to_bad=0.05, p_bad_to_good=0.2, loss_good=0.0, loss_bad=0.7
    )
    plan = FaultPlan()
    # Correlated loss early, while every flow is sequenced: the
    # retransmit state the rewrite must not corrupt.
    plan.set_loss_model(pilot.wan_link, model, at_ns=stream // 5)
    plan.clear_loss_model(pilot.wan_link, at_ns=2 * stream // 5)
    # Liveness churn: mark the U280 down (failover re-stamps to DTN 1),
    # then DTN 1 too (no live buffer -> every sender degrades). Marks
    # are control-plane only — contents survive, NAKs still get served.
    plan.at(
        11 * stream // 20,
        lambda: directory.mark_down(pilot.buffer.address),
        kind="directory_down",
        target=pilot.buffer.address,
    )
    plan.at(
        13 * stream // 20,
        lambda: directory.mark_down(pilot.dtn1_buffer.address),
        kind="directory_down",
        target=pilot.dtn1_buffer.address,
    )
    # The shape-shift itself lands mid-churn, while the senders are
    # degraded and retransmit state is outstanding.
    plan.mode_rewrite(pilot.u55c_transition, [shifted_rule], at_ns=3 * stream // 4)
    # Liveness returns only after the last identify relay has *arrived*
    # at the U280 (so none races the upgrade rule into a colliding
    # sequence space — an element-sequenced relay would start at the
    # element register's seq 0 and be dropped as a duplicate of the
    # sender's own seq 0). The stream//20 margin covers that drain for
    # long streams; short streams need the explicit path bound:
    # two DAQ hops plus the DTN1→U280 hop, with per-hop serialization.
    serialization_ns = (
        (cfg.payload_size + 256) * 8 * 1_000_000_000
    ) // LINK_RATE_BPS
    relay_drain_ns = 2 * (
        2 * DAQ_DELAY_NS + 1 * MICROSECOND + 4 * serialization_ns
    )
    markup_at = stream + max(stream // 20, relay_drain_ns)
    for buffer in (pilot.dtn1_buffer, pilot.buffer):
        plan.at(
            markup_at,
            lambda address=buffer.address: directory.mark_up(address),
            kind="directory_up",
            target=buffer.address,
        )
    plan.mode_rewrite(pilot.u55c_transition, [original_rule], at_ns=11 * stream // 10)
    injector = FaultInjector(pilot.sim, plan)

    # -- deterministic traffic with content accounting -------------------------
    sent_digests: dict[int, dict[bytes, int]] = {f: {} for f in range(flows)}
    got_digests: dict[int, dict[bytes, int]] = {f: {} for f in range(flows)}

    def account(packet, header) -> None:
        digest = hashlib.sha256(packet.payload or b"").digest()
        bucket = got_digests[header.flow_id or 0]
        bucket[digest] = bucket.get(digest, 0) + 1

    deliveries = _tap_deliveries(pilot, also=account)

    for j in range(cfg.messages):
        fid, index = j % flows, j // flows
        payload = _rewrite_payload(fid, index, cfg.payload_size)
        digest = hashlib.sha256(payload).digest()
        sent_digests[fid][digest] = sent_digests[fid].get(digest, 0) + 1
        pilot.sim.schedule(
            j * cfg.interval_ns, pilot.send_message, cfg.payload_size, fid, payload
        )
    injector.arm()
    pilot.run(reconcile=False)
    # Per-flow reconciliation against the *sequenced* space actually
    # used: degraded-window messages consumed no sequence numbers.
    for fid in range(flows):
        pilot.dtn2_receiver.request_missing(
            pilot.experiment_id, pilot.dtn1_senders[fid].next_seq, flow_id=fid
        )
    pilot.sim.run()
    base = pilot.report()

    mismatches = 0
    for fid in range(flows):
        digests = set(sent_digests[fid]) | set(got_digests[fid])
        for digest in digests:
            mismatches += abs(
                sent_digests[fid].get(digest, 0) - got_digests[fid].get(digest, 0)
            )

    return _measure_pilot(
        cfg, pilot, base, plan, injector, deliveries, content_mismatches=mismatches
    )


def _collect_metrics(pilot) -> MetricsRegistry:
    """The testbed's full telemetry scrape plus the fault-path counters
    (directory liveness, per-element re-stamping) — this is where a
    buffer failover is *observable* after the fact."""
    registry = pilot.collect_telemetry()
    registry.counter(
        "nearest_buffer_failovers", element=pilot.tofino.name
    ).set_total(pilot.tofino_nearest.failovers)
    registry.counter(
        "nearest_buffer_stale_stamps", element=pilot.tofino.name
    ).set_total(pilot.tofino_nearest.stale_stamps)
    if pilot.directory is not None:
        registry.counter("buffer_directory_marks_down").set_total(
            pilot.directory.marks_down
        )
        registry.counter("buffer_directory_marks_up").set_total(
            pilot.directory.marks_up
        )
        registry.gauge("buffer_directory_alive").set(pilot.directory.alive_count())
    return registry


def _campaign_configs(cfg: ChaosConfig) -> list[tuple[str, ChaosConfig]]:
    """The (run name, config) matrix ``run_scenarios`` executes."""
    shared = dict(
        messages=cfg.messages,
        payload_size=cfg.payload_size,
        interval_ns=cfg.interval_ns,
        seed=cfg.seed,
        wan_delay_ns=cfg.wan_delay_ns,
        wan_loss_rate=cfg.wan_loss_rate,
    )
    items = [
        (scenario, ChaosConfig(
            scenario=scenario,
            fleet_nodes=cfg.fleet_nodes,
            fleet_flows=cfg.fleet_flows,
            **shared,
        ))
        for scenario in SCENARIOS
    ]
    items.append(("buffer-failover-degraded", ChaosConfig(
        scenario="buffer-failover", failover=False, **shared
    )))
    return items


def _run_detached(item: tuple[str, ChaosConfig]) -> ChaosRun:
    """Shard worker: run one scenario, return it stripped of live state.

    The simulator, injector, and metrics registry hold bound methods
    and cross-references that must not cross a process boundary; the
    config and the all-ints report pickle cleanly and carry everything
    ``write_bench`` needs.
    """
    name, config = item
    run = run_chaos(config)
    return ChaosRun(
        scenario=name,
        config=run.config,
        report=run.report,
        pilot=None,
        injector=None,
        metrics=None,
        health=run.health,
    )


def run_scenarios(cfg: ChaosConfig, jobs: int = 1) -> list[ChaosRun]:
    """Run every named scenario (plus the no-failover degradation
    variant of ``buffer-failover``) with the same traffic parameters.

    ``jobs > 1`` shards the scenario matrix across worker processes via
    :func:`repro.analysis.shard.run_sharded`. Every scenario owns its
    own seeded simulator, so the reports — and the merged
    ``BENCH_chaos.json`` — are identical for every job count; the only
    difference is that sharded runs come back *detached* (``pilot``,
    ``injector``, and ``metrics`` are ``None``), since live simulation
    objects don't cross process boundaries.
    """
    items = _campaign_configs(cfg)
    if jobs <= 1:
        runs: list[ChaosRun] = []
        for name, config in items:
            run = run_chaos(config)
            run.scenario = name
            runs.append(run)
        return runs
    from ..analysis.shard import run_sharded

    return run_sharded(_run_detached, items, jobs=jobs)


def write_bench(runs: list[ChaosRun], directory: str | Path = ".") -> Path:
    """Write ``BENCH_chaos.json`` from finished runs.

    Deliberately *no* wall-time: every value is simulation-derived, so
    the file is byte-identical for identical seeds — the determinism
    contract chaos runs are held to.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    cfg = runs[0].config
    bench = BenchResult(
        name="chaos",
        params={
            "messages": cfg.messages,
            "payload_size": cfg.payload_size,
            "interval_ns": cfg.interval_ns,
            "wan_delay_ns": cfg.wan_delay_ns,
        },
        seed=cfg.seed,
    )
    for run in runs:
        bench.record(run.scenario, **run.report.metrics())
    return bench.write(directory)
