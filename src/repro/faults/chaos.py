"""Chaos harness: a testbed under named fault scenarios.

Every scenario takes the one path of :func:`run_chaos`: build the
testbed, schedule its traffic, script a :class:`FaultPlan` against it,
arm the plan, run, and distil recovery metrics: time-to-recover,
deliveries before/during/after the fault window, unrecovered losses,
degradations, failovers. The :data:`SCENARIOS` table names each
scenario and supplies those three parts. All randomness comes from the
simulator seed, so the same seed reproduces byte-identical metrics —
chaos runs are regression tests, not dice.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, fields as dataclass_fields, replace
from pathlib import Path
from typing import Callable, NamedTuple

from ..core.features import MsgType
from ..dataplane.pilot import DAQ_DELAY_NS, LINK_RATE_BPS, PilotConfig, PilotTestbed
from ..dataplane.programs import TransitionRule
from ..netsim.engine import Simulator
from ..netsim.loss import GilbertElliottLoss
from ..netsim.units import MICROSECOND, MILLISECOND
from ..telemetry.benchfmt import BenchResult
from ..telemetry.registry import MetricsRegistry
from .dynamics import LinkDynamics, Trajectory
from .plan import FaultInjector, FaultPlan

#: One-way delay of the WAN leg every scenario runs over.
WAN_DELAY_NS = 1 * MILLISECOND
#: Background WAN corruption loss of the U280-buffer-kill builds (without
#: some loss there is nothing for a retransmission buffer to do).
WAN_LOSS_RATE = 0.02
#: Receiver-farm size and concurrency of the node-crash scenario.
FLEET_NODES = 8
FLEET_FLOWS = 16
#: Concurrent flows whose in-flight state must survive the mid-flow
#: mode-map rewrite.
REWRITE_FLOWS = 3


class Traffic(NamedTuple):
    """What a scenario's traffic step hands the run."""

    #: How long the stream lasts; fault times scale with it.
    span_ns: int
    #: ``(time, msg_type, ...)`` per delivery, filled in as the run goes.
    deliveries: list
    #: After the run: payloads delivered that differ from those sent.
    mismatches: Callable[[], int] = lambda: 0


@dataclass(frozen=True)
class Scenario:
    """One named scenario: the parts :func:`run_chaos` runs, in order."""

    #: Builds the testbed on the run's seeded simulator.
    build: Callable[[Simulator], object]
    #: Schedules the messages (before the plan is armed, so traffic
    #: fires first among events due at one time).
    traffic: Callable[[ChaosConfig, object], Traffic]
    #: Scripts the faults against the testbed, scaled to the span.
    plan: Callable[[ChaosConfig, object, int], FaultPlan]
    #: Passes by degrading: no live buffer remains after the fault, so
    #: the sender must shed reliability gracefully (announced, bounded
    #: NAKs, no storm) instead of recovering every loss.
    may_degrade: bool = False


def _pilot(**config) -> Callable[[Simulator], PilotTestbed]:
    """Build step: the Fig. 4 pilot with telemetry, ``config`` on top."""
    return lambda sim: PilotTestbed(
        sim, PilotConfig(wan_delay_ns=WAN_DELAY_NS, telemetry=True, **config)
    )


def _farm(sim: Simulator):
    # Imported here, not at module top: fleet builds on faults (the
    # controller consumes BufferDirectory-style marks), so the reverse
    # import must stay lazy.
    from ..fleet import FarmConfig, ReceiverFarm

    return ReceiverFarm(sim, FarmConfig(
        nodes=FLEET_NODES, flows=FLEET_FLOWS, wan_delay_ns=WAN_DELAY_NS, telemetry=True
    ))


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


def _stream(cfg: ChaosConfig, pilot: PilotTestbed) -> Traffic:
    """One steady stream from the sensor."""
    deliveries = _tap_deliveries(pilot)
    pilot.send_stream(cfg.messages, payload_size=cfg.payload_size, interval_ns=cfg.interval_ns)
    return Traffic(cfg.messages * cfg.interval_ns, deliveries)


def _split(cfg: ChaosConfig, farm) -> Traffic:
    """The message budget split across the farm's flows, all sending in
    parallel: the stream spans one flow's share."""
    span = farm.send_split(cfg.messages, cfg.payload_size, cfg.interval_ns)
    return Traffic(span, farm.deliveries)


def _digested(cfg: ChaosConfig, pilot: PilotTestbed) -> Traffic:
    """Round-robin over the flows, each message a distinct payload, with
    per-flow payload digests counted in and out: a shape-shift that
    corrupts, drops or duplicates content shows as a mismatch."""
    flows = pilot.config.flows
    sent = [Counter() for _ in range(flows)]
    got = [Counter() for _ in range(flows)]

    def account(packet, header) -> None:
        got[header.flow_id or 0][hashlib.sha256(packet.payload or b"").digest()] += 1

    deliveries = _tap_deliveries(pilot, also=account)
    for j in range(cfg.messages):
        fid, index = j % flows, j // flows
        stamp = f"mrc:{fid}:{index}:".encode()
        payload = (stamp * (cfg.payload_size // len(stamp) + 1))[:cfg.payload_size]
        sent[fid][hashlib.sha256(payload).digest()] += 1
        pilot.sim.schedule(
            j * cfg.interval_ns, pilot.send_message, cfg.payload_size, fid, payload
        )

    def mismatches() -> int:
        return sum(sum(((s - g) + (g - s)).values()) for s, g in zip(sent, got))

    return Traffic(cfg.messages * cfg.interval_ns, deliveries, mismatches)


def shift_maps(pilot: PilotTestbed) -> tuple[list[TransitionRule], list[TransitionRule]]:
    """The U55C's installed mode map (age-recover → deliver-check) and
    the shifted one a mid-flow rewrite swaps in (age-recover stays)."""
    original = list(pilot.u55c_transition.rules)
    from_id = original[0].from_config_id
    return original, [TransitionRule(from_config_id=from_id, to_mode="age-recover")]


def _burst_loss(cfg: ChaosConfig, pilot: PilotTestbed, span: int) -> FaultPlan:
    # Hot enough that bursts reliably hit the window even for short
    # CI streams (~75 packets): E[bursts] = packets * p_g2b.
    model = GilbertElliottLoss(
        p_good_to_bad=0.05, p_bad_to_good=0.2, loss_good=0.0, loss_bad=0.7
    )
    return (
        FaultPlan()
        .set_loss_model(pilot.wan_link, model, at_ns=span // 4)
        .clear_loss_model(pilot.wan_link, at_ns=3 * span // 4)
    )


def _link_drift(cfg: ChaosConfig, pilot: PilotTestbed, span: int) -> FaultPlan:
    # Delay ramps linearly to 2x across the middle of the stream (and
    # stays there), while the rate steps down to 40% and back. Layered
    # on top, a Gilbert-Elliott model whose parameters drift worse and
    # then recover — so the receiver's retransmit timeout is exercised
    # against the delay the path has *now*, not the one it started with.
    wan = pilot.wan_link
    delay = Trajectory(
        [(0, WAN_DELAY_NS), (span // 4, WAN_DELAY_NS), (3 * span // 4, 2 * WAN_DELAY_NS)],
        interpolate="linear",
    )
    rate = Trajectory(
        [(0, wan.rate_bps), (span // 3, wan.rate_bps * 2 // 5), (2 * span // 3, wan.rate_bps)],
        interpolate="step",
    )
    model = GilbertElliottLoss(
        p_good_to_bad=0.03, p_bad_to_good=0.25, loss_good=0.0, loss_bad=0.5
    )
    return (
        FaultPlan()
        .link_dynamics(LinkDynamics(
            wan, rate_bps=rate, delay_ns=delay, start_ns=0, end_ns=span,
            sample_every_ns=max(span // 32, 1),
        ))
        .set_loss_model(wan, model, at_ns=span // 4)
        .ge_drift(
            model,
            [
                (span // 2, {"p_good_to_bad": 0.05, "loss_bad": 0.7}),
                (5 * span // 8, {"p_good_to_bad": 0.02, "loss_bad": 0.3}),
            ],
            target=wan.name,
        )
        .clear_loss_model(wan, at_ns=3 * span // 4)
    )


def _rewrite_churn(cfg: ChaosConfig, pilot: PilotTestbed, span: int) -> FaultPlan:
    """Mid-stream: a burst loss window seeds retransmit state; both
    buffers' directory liveness flaps (so every sender degrades and
    later upgrades); and the U55C's mode map is rewritten *while that
    churn is in flight* — deliver-check down to age-recover, then back.
    Liveness flaps are control-plane only (buffer contents survive), so
    every sequenced loss must still be recoverable."""
    directory, wan = pilot.directory, pilot.wan_link
    u280, dtn1 = pilot.buffer.address, pilot.dtn1_buffer.address
    original, shifted = shift_maps(pilot)
    model = GilbertElliottLoss(
        p_good_to_bad=0.05, p_bad_to_good=0.2, loss_good=0.0, loss_bad=0.7
    )
    # Liveness returns only after the last identify relay has *arrived*
    # at the U280 (so none races the upgrade rule into a colliding
    # sequence space — an element-sequenced relay would start at the
    # element register's seq 0 and be dropped as a duplicate of the
    # sender's own seq 0). The span//20 margin covers that drain for
    # long streams; short streams need the explicit path bound:
    # two DAQ hops plus the DTN1→U280 hop, with per-hop serialization.
    serialization_ns = ((cfg.payload_size + 256) * 8 * 1_000_000_000) // LINK_RATE_BPS
    relay_drain_ns = 2 * (2 * DAQ_DELAY_NS + 1 * MICROSECOND + 4 * serialization_ns)
    markup_at = span + max(span // 20, relay_drain_ns)
    return (
        FaultPlan()
        # Correlated loss early, while every flow is sequenced: the
        # retransmit state the rewrite must not corrupt.
        .set_loss_model(wan, model, at_ns=span // 5)
        .clear_loss_model(wan, at_ns=2 * span // 5)
        # The U280 down (failover re-stamps to DTN 1), then DTN 1 too
        # (no live buffer -> every sender degrades).
        .mark_down(directory, u280, 11 * span // 20)
        .mark_down(directory, dtn1, 13 * span // 20)
        # The shape-shift lands mid-churn, while the senders are
        # degraded and retransmit state is outstanding.
        .mode_rewrite(pilot.u55c_transition, shifted, at_ns=3 * span // 4)
        .mark_up(directory, dtn1, markup_at)
        .mark_up(directory, u280, markup_at)
        .mode_rewrite(pilot.u55c_transition, original, at_ns=11 * span // 10)
    )


def _kill_u280_buffer(cfg: ChaosConfig, pilot: PilotTestbed, span: int) -> FaultPlan:
    return FaultPlan().buffer_fail(pilot.buffer, at_ns=span // 2, directory=pilot.directory)


#: The named scenarios, in the order ``--scenario all`` runs them.
SCENARIOS: dict[str, Scenario] = {
    # The WAN link goes down/up twice mid-stream. Packets (and NAKs) in
    # flight during an outage are dropped at the link; recovery rides
    # the normal NAK path once the link returns.
    "link-flap": Scenario(_pilot(), _stream, lambda cfg, pilot, span: FaultPlan().link_flap(
        pilot.wan_link, first_down_ns=span // 4, down_ns=span // 5,
        period_ns=span // 2, count=2,
    )),
    # A Gilbert–Elliott model on the WAN link for the middle of the
    # stream: correlated loss bursts instead of independent drops.
    "burst-loss": Scenario(_pilot(), _stream, _burst_loss),
    # The Tofino2 crashes mid-stream and restarts a little later with
    # all stateful registers wiped; traffic arriving meanwhile is lost.
    "element-restart": Scenario(_pilot(), _stream, lambda cfg, pilot, span: (
        FaultPlan()
        .element_crash(pilot.tofino, at_ns=span // 3)
        .element_restart(pilot.tofino, at_ns=2 * span // 3)
    )),
    # The directory-wired pilot's U280 HBM buffer dies mid-stream and
    # is marked down: the Tofino re-stamps flows to the DTN 1 failover
    # buffer and recovery completes with zero unrecovered.
    "buffer-failover": Scenario(
        _pilot(wan_loss_rate=WAN_LOSS_RATE, buffers="failover"), _stream, _kill_u280_buffer
    ),
    # One of N receiver DTNs crashes mid-stream: the fleet controller
    # marks it down at the next sync tick, the balancer redirects its
    # windows to survivors, and calendar-directed reconciliation repairs
    # everything it absorbed. The crash lands half an interval off the
    # midpoint so it never coincides with a sync tick (the detection gap
    # must be nonzero for redirect-on-crash to be exercised).
    "fleet-node-crash": Scenario(_farm, _split, lambda cfg, farm, span: FaultPlan().node_crash(
        farm, FLEET_NODES // 2, at_ns=span // 2 + cfg.interval_ns // 2
    )),
    # Time-varying WAN: delay ramp, rate step and a drifting GE model —
    # the retransmit timeout must follow the delay the path has now.
    "link-drift": Scenario(_pilot(), _stream, _link_drift),
    # Mid-flow shape-shifting under churn on a multi-flow directory
    # build; acceptance is zero unrecovered *and* a byte-exact
    # payload-digest match per flow.
    "mode-rewrite-churn": Scenario(
        _pilot(buffers="failover", flows=REWRITE_FLOWS), _digested, _rewrite_churn
    ),
    # The same U280 kill with no failover buffer registered: the DTN 1
    # sender degrades to identification-only.
    "buffer-failover-degraded": Scenario(
        _pilot(wan_loss_rate=WAN_LOSS_RATE, buffers="directory"), _stream, _kill_u280_buffer,
        may_degrade=True,
    ),
}


@dataclass
class ChaosConfig:
    """Parameters for one chaos run (the scenario supplies the rest)."""

    scenario: str = next(iter(SCENARIOS))
    messages: int = 500
    payload_size: int = 8000
    interval_ns: int = 2 * MICROSECOND
    seed: int = 42


def _egress(testbed) -> tuple[list, int, int]:
    """A testbed's fault surfaces: its WAN legs, the liveness marks taken
    (directory or fleet controller) and the U55C's mode-map rewrites."""
    if isinstance(testbed, PilotTestbed):
        directory = testbed.directory
        marks = directory.marks_down if directory is not None else 0
        return [testbed.wan_link], marks, testbed.u55c_transition.rewrites
    return [node.link for node in testbed.nodes], testbed.controller.stats.marks_down, 0


@dataclass
class FaultCounters:
    """The counters every fault run reports, a chaos scenario or the
    soak (all plain ints: they are committed to ``BENCH_*.json`` and
    diffed across commits, so nothing wall-clock-dependent belongs here)."""

    messages_sent: int
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

    @classmethod
    def measure(cls, testbed, base, plan: FaultPlan, injector: FaultInjector, **own):
        """Count a finished run (``base`` is the testbed's own report);
        ``own`` fills the subclass's fields."""
        links, _, rewrites = _egress(testbed)
        senders = testbed.dtn1_senders
        return cls(
            messages_sent=base.messages_sent,
            delivered=base.delivered,
            duplicates=sum(r.stats.duplicates for r in testbed.receivers),
            unrecovered=base.unrecovered,
            naks_sent=base.naks_sent,
            naks_served=base.naks_served,
            retransmissions=base.retransmissions,
            lost_down=sum(link.stats.lost_down for link in links),
            lost_model=sum(link.stats.lost_model for link in links),
            faults_injected=len(plan),
            faults_fired=len(injector.fired),
            mode_degradations=sum(s.stats.mode_degradations for s in senders),
            mode_upgrades=sum(s.stats.mode_upgrades for s in senders),
            degraded_final=sum(s.stats.degraded_final for s in senders),
            mode_rewrites=rewrites,
            link_rate_changes=sum(link.stats.rate_changes for link in links),
            link_delay_changes=sum(link.stats.delay_changes for link in links),
            **own,
        )

    def metrics(self) -> dict[str, int]:
        """Flat metric dict, ready for :meth:`BenchResult.record`."""
        return {f.name: getattr(self, f.name) for f in dataclass_fields(self)}


@dataclass
class ChaosReport(FaultCounters):
    """Recovery metrics for one scenario run."""

    delivered_before: int
    delivered_during: int
    delivered_after: int
    failover_served: int
    fault_start_ns: int
    fault_end_ns: int
    time_to_recover_ns: int
    element_degradations: int
    buffer_failovers: int
    directory_marks_down: int
    content_mismatches: int

    @property
    def complete(self) -> bool:
        return (
            self.delivered >= self.messages_sent
            and self.unrecovered == 0
            and self.content_mismatches == 0
        )


@dataclass
class ChaosRun:
    """A finished chaos run: the metrics plus the live objects behind
    them, for tests and telemetry export."""

    config: ChaosConfig
    report: ChaosReport
    #: The testbed behind the run: a :class:`PilotTestbed` or a
    #: :class:`~repro.fleet.farm.ReceiverFarm`. ``None`` for runs that
    #: crossed a process boundary (sharded campaigns detach live
    #: simulation state before pickling), as are the next two.
    pilot: object
    injector: FaultInjector | None
    metrics: MetricsRegistry | None

    @property
    def scenario(self) -> str:
        return self.config.scenario

    @property
    def passed(self) -> bool:
        """Recovered completely, or degraded gracefully where the
        scenario leaves no live buffer to recover from."""
        r = self.report
        return r.complete or (
            SCENARIOS[self.scenario].may_degrade
            and r.mode_degradations + r.element_degradations > 0
        )


def run_chaos(cfg: ChaosConfig) -> ChaosRun:
    """Build, load, fault, run and measure one scenario."""
    scenario = SCENARIOS.get(cfg.scenario)
    if scenario is None:
        raise ValueError(f"unknown scenario {cfg.scenario!r} (one of {tuple(SCENARIOS)})")
    testbed = scenario.build(Simulator(seed=cfg.seed))
    # Traffic before the plan: a farm's span is only known once its
    # messages are split across flows.
    traffic = scenario.traffic(cfg, testbed)
    plan = scenario.plan(cfg, testbed, traffic.span_ns)
    injector = FaultInjector(testbed.sim, plan)
    injector.arm()
    base = testbed.run()

    start, end = plan.start_ns, plan.end_ns
    times = [t for t, *_ in traffic.deliveries]
    # Time to recover: how long past the end of the fault window the
    # last repair (retransmitted delivery) arrived. 0 = no repairs
    # needed after the window, i.e. instant recovery.
    retx_times = [t for t, m, *_ in traffic.deliveries if m == MsgType.RETX_DATA]
    recovered_at = max(retx_times, default=end)
    failover = testbed.dtn1_buffer
    report = ChaosReport.measure(
        testbed, base, plan, injector,
        delivered_before=sum(1 for t in times if t < start),
        delivered_during=sum(1 for t in times if start <= t <= end),
        delivered_after=sum(1 for t in times if t > end),
        failover_served=failover.stats.hits if failover is not None else 0,
        fault_start_ns=start,
        fault_end_ns=end,
        time_to_recover_ns=max(0, recovered_at - end),
        element_degradations=testbed.u280_transition.degradations,
        buffer_failovers=testbed.tofino_nearest.failovers,
        directory_marks_down=_egress(testbed)[1],
        content_mismatches=traffic.mismatches(),
    )
    return ChaosRun(cfg, report, testbed, injector, testbed.collect_telemetry())


def _run_detached(cfg: ChaosConfig) -> ChaosRun:
    """Shard worker: run one scenario, return it stripped of live state.

    The simulator, injector, and metrics registry hold bound methods
    and cross-references that must not cross a process boundary; the
    config and the all-ints report pickle cleanly and carry everything
    ``write_bench`` needs.
    """
    return replace(run_chaos(cfg), pilot=None, injector=None, metrics=None)


def run_scenarios(cfg: ChaosConfig, jobs: int = 1) -> list[ChaosRun]:
    """Run every scenario of :data:`SCENARIOS` with ``cfg``'s traffic
    parameters (its ``scenario`` is ignored).

    ``jobs > 1`` shards the scenario matrix across worker processes via
    :func:`repro.analysis.shard.run_sharded`. Every scenario owns its
    own seeded simulator, so the reports — and the merged
    ``BENCH_chaos.json`` — are identical for every job count; the only
    difference is that sharded runs come back *detached* (``pilot``,
    ``injector``, and ``metrics`` are ``None``), since live simulation
    objects don't cross process boundaries.
    """
    configs = [replace(cfg, scenario=name) for name in SCENARIOS]
    if jobs <= 1:
        return [run_chaos(config) for config in configs]
    from ..analysis.shard import run_sharded

    return run_sharded(_run_detached, configs, jobs=jobs)


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
            "wan_delay_ns": WAN_DELAY_NS,
        },
        seed=cfg.seed,
    )
    for run in runs:
        bench.record(run.scenario, **run.report.metrics())
    return bench.write(directory)
