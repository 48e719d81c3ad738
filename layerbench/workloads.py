"""The four benchmark workloads, driven through ``repro``'s public API.

Each workload is four plain functions — ``build(seed)``, ``inject(ctx)``,
``run(ctx)``, ``extract(ctx)`` — that the worker times as phases. Only
``run`` is profiled in the traced rep, so everything that calls into
``repro`` to do simulated work lives there; ``extract`` only *reads*
public stats objects and turns them into the benchmark's numbers.

Traffic is open-loop on the *simulated* clock (every send time is fixed
before ``run``), so a slow simulator never receives less load.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.dataplane import PilotConfig, PilotTestbed
from repro.fleet import FleetConfig, FleetOrchestrator
from repro.integration.incast import IncastConfig, run_incast
from repro.netsim import Simulator
from repro.netsim.units import MILLISECOND
from repro.obs import series_digest
from repro.trace import attach_recording_sink, trace_digest, verify_int_consistency

from .stats import goodput_window, percentile, tail_percentile

PILOT_MESSAGES = 16_000
PILOT_INTERVAL_NS = 2_000
#: The observation plane of ``pilot_observed``: every mechanism on, and
#: enough WAN loss that DTN 2 NAKs the U280 buffer.
OBSERVED = dict(wan_loss_rate=0.01, telemetry=True, trace=True, sample_every_ns=100_000)

INCAST_SEEDS = 16
INCAST_TRANSPORTS = ("mmt", "tcp")

FLEET_NODES = 64
FLEET_FLOWS = 128


@dataclass
class Rep:
    """What one rep produced: exact simulated results plus counters."""

    offered: int
    delivered: int
    failed: int
    events: int
    payload_bytes: int
    sim_span_ns: int
    latency_p50_ns: float
    latency_tail_ns: float
    tail_pct: float
    #: Per-layer counters read off public stats objects (see README).
    counters: dict
    #: ``(name, ok, detail)`` — invariants checked on every rep.
    checks: list
    #: Hashed into the result digest (expected.json).
    digest_material: dict
    #: Host seconds spent building *inside* ``run`` (incast fabric
    #: builds, timed through ``run_incast``'s ``instrument`` hook).
    #: Charged to set-up, not to ``run_wall_s``.
    nested_build_spans: list = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable
    inject: Callable
    run: Callable
    extract: Callable


# -- shared counter helpers -----------------------------------------------------


def _topology_counters(*topologies) -> dict:
    """Link and queue counters over whole topologies (one per simulation)."""
    links = [link for topology in topologies for link in topology.links]
    queues = [port.queue for topology in topologies
              for node in topology.nodes.values() for port in node.ports.values()]
    return {
        "link_delivered": sum(link.stats.delivered for link in links),
        "link_lost": sum(
            link.stats.lost_random + link.stats.lost_corruption
            + link.stats.lost_down + link.stats.lost_model
            for link in links
        ),
        "queue_drops": sum(q.dropped for q in queues),
        "queue_ce_marked": sum(getattr(q, "ce_marked", 0) for q in queues),
        "queue_peak_bytes": max(q.peak_bytes for q in queues),
    }


def _element_counters(elements) -> dict:
    return {
        "mmt_processed": sum(e.stats.mmt_processed for e in elements),
        "mirrored_to_buffer": sum(e.stats.mirrored_to_buffer for e in elements),
        "naks_served": sum(e.stats.naks_served for e in elements),
        "int_postcards": sum(e.stats.int_postcards_pushed for e in elements),
    }


def _no_inject(ctx: dict) -> None:
    """``run_incast`` and ``FleetOrchestrator.run`` attach their own
    traffic; the phase stays so every workload reports the same spans."""


def _check(checks: list, name: str, ok: bool, detail: str = "") -> None:
    checks.append((name, bool(ok), detail))


def _mean(values: list) -> float:
    """Mean of the values that exist (a cell with no finished flow has none)."""
    present = [v for v in values if v is not None]
    return sum(present) / len(present) if present else float("inf")


# -- pilot_clean / pilot_observed -----------------------------------------------


def _pilot_build(observed: bool):
    def build(seed: int) -> dict:
        config = PilotConfig(wan_delay_ns=10 * MILLISECOND, **(OBSERVED if observed else {}))
        pilot = PilotTestbed(Simulator(seed=seed), config)
        return {
            "seed": seed,
            "pilot": pilot,
            "sink": attach_recording_sink(pilot) if observed else None,
        }

    return build


def pilot_payload_sizes(seed: int, count: int = PILOT_MESSAGES) -> list[int]:
    """Seeded DAQ message sizes in 8-byte words: 6000 B up to a cap that
    is itself drawn from the seed (7752..8000 B).

    One jumbo frame each, so per-packet bookkeeping (not bytes) carries
    the host cost for every seed; the sizes only make the simulated
    results a function of the seed — the drawn cap because the slowest
    message is the largest one, so a fixed cap would pin the tail
    latency of ``pilot_clean`` to one value for every seed.
    """
    rng = random.Random(f"layerbench:pilot:{seed}")
    words = (8000 - 8 * rng.randrange(32) - 6000) // 8 + 1
    return [6000 + 8 * rng.randrange(words) for _ in range(count)]


def _pilot_inject(ctx: dict) -> None:
    pilot = ctx["pilot"]
    schedule = pilot.sim.schedule
    for i, size in enumerate(pilot_payload_sizes(ctx["seed"])):
        schedule(i * PILOT_INTERVAL_NS, pilot.send_message, size)


def _pilot_run(ctx: dict) -> None:
    pilot = ctx["pilot"]
    ctx["report"] = pilot.run()
    if ctx["sink"] is not None:
        pilot.collect_telemetry()
        events = pilot.tracer.events()
        ctx["trace_digest"] = trace_digest(events)
        ctx["series_digest"] = series_digest(pilot.sampler)
        ctx["int_report"] = verify_int_consistency(events, ctx["sink"])


def _pilot_extract(ctx: dict) -> Rep:
    pilot, report = ctx["pilot"], ctx["report"]
    observed = ctx["sink"] is not None
    latencies = report.delivery_latencies_ns
    payload_bytes, sim_span_ns = goodput_window(pilot.delivered_messages)
    tail_pct = tail_percentile(len(latencies))
    lossy = pilot.wan_link.stats.lost_random > 0

    checks: list = []
    _check(checks, "report.complete", report.complete,
           f"delivered {report.delivered}/{report.messages_sent}, unrecovered {report.unrecovered}")
    _check(checks, "sensor.rx_unhandled == 0", pilot.sensor.rx_unhandled == 0,
           str(pilot.sensor.rx_unhandled))
    _check(checks, "mode_transitions_u280 == dtn1_relayed",
           report.mode_transitions_u280 == report.dtn1_relayed,
           f"{report.mode_transitions_u280} vs {report.dtn1_relayed}")
    if lossy:
        # A NAK crosses the same lossy WAN leg, so some never arrive.
        _check(checks, "naks_served <= naks_sent", report.naks_served <= report.naks_sent,
               f"{report.naks_served} vs {report.naks_sent}")
    else:
        _check(checks, "naks_served == naks_sent", report.naks_served == report.naks_sent,
               f"{report.naks_served} vs {report.naks_sent}")
    if observed:
        int_report = ctx["int_report"]
        _check(checks, "verify_int_consistency (tolerance 0)", int_report.ok,
               f"{len(int_report.mismatches)} mismatches over "
               f"{int_report.postcards_checked} postcards")

    counters = _topology_counters(pilot.topology)
    counters.update(_element_counters((pilot.u280, pilot.tofino, pilot.u55c)))
    counters.update(
        naks=report.naks_sent,
        retransmissions=report.retransmissions,
        duplicates=report.duplicates,
        unrecovered=report.unrecovered,
        buffer_occupancy=report.buffer_occupancy,
        trace_events=pilot.tracer.events_emitted if pilot.tracer is not None else 0,
        obs_samples=pilot.sampler.sample_emits if pilot.sampler is not None else 0,
    )

    material = {
        "report": {
            key: getattr(report, key)
            for key in (
                "messages_sent", "dtn1_relayed", "delivered", "duplicates", "naks_sent",
                "naks_served", "retransmissions", "unrecovered", "aged_packets",
                "deadline_ok", "deadline_misses", "mode_transitions_u280",
                "mode_transitions_u55c", "age_updates_tofino",
            )
        },
        "latencies_ns": latencies,
    }
    if observed:
        material["trace_digest"] = ctx["trace_digest"]
        material["series_digest"] = ctx["series_digest"]

    return Rep(
        offered=report.messages_sent,
        delivered=report.delivered,
        failed=report.messages_sent - report.delivered + report.unrecovered,
        events=pilot.sim.events_processed,
        payload_bytes=payload_bytes,
        sim_span_ns=sim_span_ns,
        latency_p50_ns=percentile(latencies, 50),
        latency_tail_ns=percentile(latencies, tail_pct),
        tail_pct=tail_pct,
        counters=counters,
        checks=checks,
        digest_material=material,
    )


# -- incast_n16 -----------------------------------------------------------------


def _incast_build(seed: int) -> dict:
    configs = [
        IncastConfig(transport=transport, senders=16, load=1.5, mark_threshold=0.2,
                     symmetric=True, ecn=True, seed=cell_seed)
        for transport in INCAST_TRANSPORTS
        # Disjoint cell seeds per benchmark seed: neighbouring seeds
        # must not share 15 of their 16 cells.
        for cell_seed in range(seed * INCAST_SEEDS, (seed + 1) * INCAST_SEEDS)
    ]
    return {"configs": configs}


def _incast_run(ctx: dict) -> None:
    # ``instrument`` fires once the fabric is built and before traffic:
    # it hands us the fabric (for counters) and marks where set-up ends.
    fabrics: list = []
    build_spans: list = []
    reports = []
    clock = time.perf_counter

    def instrument(fabric) -> None:
        build_spans.append((started, clock()))
        fabrics.append(fabric)

    for config in ctx["configs"]:
        started = clock()
        reports.append(run_incast(config, instrument=instrument))
    ctx.update(reports=reports, fabrics=fabrics, build_spans=build_spans)


def _incast_extract(ctx: dict) -> Rep:
    reports, fabrics = ctx["reports"], ctx["fabrics"]
    by_transport = {
        t: [r for r in reports if r.config.transport == t] for t in INCAST_TRANSPORTS
    }
    mmt, tcp = by_transport["mmt"], by_transport["tcp"]

    flows = sum(r.summary.flows for r in reports)
    completed = sum(r.summary.completed for r in reports)
    # ``IncastReport`` publishes a per-cell FCT summary, not the flows,
    # so percentiles are per cell (16 flows) and averaged over the cells.
    mmt_p50 = _mean([r.summary.p50_ns for r in mmt])
    mmt_p95 = _mean([r.summary.p95_ns for r in mmt])
    tcp_p95 = _mean([r.summary.p95_ns for r in tcp])

    checks: list = []
    for transport, cells in by_transport.items():
        short = [f"seed {r.config.seed}: {r.summary.completed}/{r.summary.flows}"
                 for r in cells if r.summary.unfinished]
        _check(checks, f"{transport}: 16/16 flows complete on every seed", not short,
               "; ".join(short))
    _check(checks, "MMT p95 FCT <= TCP p95 FCT (Fig. 2)", mmt_p95 <= tcp_p95,
           f"{mmt_p95 / 1e3:.1f} us vs {tcp_p95 / 1e3:.1f} us")

    counters = _topology_counters(*(fabric.topology for fabric in fabrics))
    counters.update(
        retransmissions=sum(r.extra["retransmissions"] for r in mmt),
        unrecovered=sum(r.extra["unrecovered"] for r in mmt),
        tcp_retransmits=sum(r.extra["retransmits"] for r in tcp),
        tcp_ecn_reductions=sum(r.extra["ecn_reductions"] for r in tcp),
        tcp_fct_p95_ns=tcp_p95,
    )

    message_bytes = reports[0].config.message_bytes
    return Rep(
        offered=flows,
        delivered=sum(r.summary.completed * r.config.flow_bytes for r in reports)
        // message_bytes,
        failed=flows - completed,
        events=sum(fabric.topology.sim.events_processed for fabric in fabrics),
        # Simulated results are MMT's (TCP is the baseline, reported as
        # baselines.fct_p95_us): bytes its flows completed over the sum
        # of its cells' slowest-flow completion times.
        payload_bytes=sum(r.summary.completed * r.config.flow_bytes for r in mmt),
        sim_span_ns=sum(r.summary.max_ns or r.config.horizon_ns for r in mmt),
        latency_p50_ns=mmt_p50,
        latency_tail_ns=mmt_p95,
        tail_pct=95.0,
        counters=counters,
        checks=checks,
        digest_material={"cells": [r.as_metrics() for r in reports]},
        nested_build_spans=ctx["build_spans"],
    )


# -- fleet_64x128 ---------------------------------------------------------------


def _fleet_build(seed: int) -> dict:
    return {"fleet": FleetOrchestrator(
        FleetConfig(nodes=FLEET_NODES, flows=FLEET_FLOWS, seed=seed))}


def _fleet_run(ctx: dict) -> None:
    ctx["report"] = ctx["fleet"].run()


def _fleet_extract(ctx: dict) -> Rep:
    fleet, report = ctx["fleet"], ctx["report"]
    farm, farm_report = fleet.farm, report.farm
    fcts = [report.fct_ns[fid] for fid in sorted(report.fct_ns)]
    tail_pct = tail_percentile(len(fcts))
    payload_bytes, sim_span_ns = goodput_window(
        [d for flow in farm.delivered_by_flow.values() for d in flow])

    checks: list = []
    _check(checks, "report.complete", report.complete,
           f"delivered {farm_report.delivered}/{farm_report.messages_sent}")
    _check(checks, "node Jain >= 0.9", report.node_fairness >= 0.9,
           f"{report.node_fairness:.4f}")

    counters = _topology_counters(farm.topology)
    counters.update(_element_counters((farm.u280, farm.tofino)))
    counters.update(
        naks=farm_report.naks_sent,
        retransmissions=farm_report.retransmissions,
        duplicates=sum(node.receiver.stats.duplicates for node in farm.nodes),
        unrecovered=farm_report.unrecovered,
        buffer_occupancy=farm.buffer.occupancy,
        table_updates=farm_report.table_updates,
        node_jain=report.node_fairness,
    )

    return Rep(
        offered=farm_report.messages_sent,
        delivered=farm_report.delivered,
        failed=farm_report.messages_sent - farm_report.delivered + farm_report.unrecovered,
        events=fleet.sim.events_processed,
        payload_bytes=payload_bytes,
        sim_span_ns=sim_span_ns,
        latency_p50_ns=percentile(fcts, 50),
        latency_tail_ns=percentile(fcts, tail_pct),
        tail_pct=tail_pct,
        counters=counters,
        checks=checks,
        digest_material={
            "farm": {
                key: getattr(farm_report, key)
                for key in ("messages_sent", "dtn1_relayed", "delivered", "naks_sent",
                            "naks_served", "retransmissions", "unrecovered", "epoch",
                            "table_updates", "redirects", "syncs")
            },
            "per_flow": {str(fid): row for fid, row in sorted(report.per_flow.items())},
            "fct_ns": fcts,
        },
    )


# -- warm-up --------------------------------------------------------------------


def warm_up() -> tuple[int, int]:
    """The committed Fig. 4 "fabric-like (10 ms WAN)" case, untimed.

    Fills the codec / LPM / IPv4 memo tables, and returns ``(delivered,
    p50 latency ns)`` so the caller can pin the run to the golden row in
    ``BENCH_fig4_pilot.json`` (seed 31, 800 x 8000 B every 2 us).
    """
    pilot = PilotTestbed(Simulator(seed=31), PilotConfig(wan_delay_ns=10 * MILLISECOND))
    pilot.send_stream(800, payload_size=8000, interval_ns=PILOT_INTERVAL_NS)
    report = pilot.run()
    return report.delivered, percentile(report.delivery_latencies_ns, 50)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pilot_clean",
            "Fig. 4 forward path only: per-packet bookkeeping through engine, links, "
            "codec and pipeline; observation and repair idle (bypass for obs changes)",
            _pilot_build(observed=False), _pilot_inject, _pilot_run, _pilot_extract,
        ),
        Workload(
            "pilot_observed",
            "same traffic with INT, spans, sampling, scrape and 1% WAN loss: prices the "
            "five observation mechanisms and NAK repair against pilot_clean",
            _pilot_build(observed=True), _pilot_inject, _pilot_run, _pilot_extract,
        ),
        Workload(
            "incast_n16",
            "Fig. 2 overload incast, MMT vs TCP on an ECN leaf-spine: queues, switches, "
            "RNG draws and baselines.tcp carry the cost; no programmable element on path",
            _incast_build, _no_inject, _incast_run, _incast_extract,
        ),
        Workload(
            "fleet_64x128",
            "64 receiver DTNs, 128 DRR-scheduled DAQ flows: pilot-shaped forwarding plus "
            "build time, resident memory and balancer/control-loop work at scale",
            _fleet_build, _no_inject, _fleet_run, _fleet_extract,
        ),
    )
}
