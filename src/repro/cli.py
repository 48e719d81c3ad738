"""Command-line interface: run the paper's experiments from a shell.

Installed as the ``repro`` console script::

    repro catalog                         # Table 1
    repro pilot --loss 0.01 --wan-ms 10   # the Fig. 4 pilot study
    repro pilot --telemetry out.jsonl     # ... with a telemetry snapshot
    repro compare --loss 0.001            # Fig. 2 vs Fig. 3 head-to-head
    repro supernova                       # DUNE -> Rubin early warning
    repro header                          # per-mode wire-format costs
    repro telemetry out.jsonl             # render a snapshot as tables
    repro chaos --scenario all            # every fault scenario -> BENCH_chaos.json
    repro soak --ci                       # ~60 s simulated endurance smoke
    repro soak                            # the full one-hour endurance soak
    repro incast --grid small             # Fig. 2 incast FCT head-to-head
    repro pilot --trace trace.jsonl       # ... with the causal flight recorder on
    repro trace --timeline 10752:0:7      # one packet's root-cause timeline
    repro trace --chrome trace.json       # Perfetto-loadable export

Every subcommand prints the same tables the benchmark suite produces,
so quick shell exploration and recorded experiments stay consistent.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .analysis import ResultTable, format_duration, format_rate, percentile
from .core import MmtHeader, TransitionContext, extended_registry, transition
from .daq import catalog
from .dataplane import PilotConfig, PilotTestbed
from .faults import SCENARIOS
from .integration import SupernovaConfig, compare as supernova_compare, jain_fairness
from .netsim import Simulator
from .netsim.units import MILLISECOND
from .telemetry import TelemetryError, quantile_from_buckets, read_snapshot, write_snapshot
from .wan import MultimodalScenario, ScenarioConfig, TodayScenario


def _checked(kind, ok, wants: str):
    """argparse ``type=``: a ``kind`` number satisfying ``ok``, else a
    usage error (exit 2) naming the flag and what it ``wants``."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}"
            ) from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {wants}, got {value}")
        return value

    return parse


_positive_int = _checked(int, lambda v: v >= 1, ">= 1")
_positive_float = _checked(float, lambda v: v > 0, "> 0")
_loss_rate = _checked(float, lambda v: 0 <= v < 1, "in [0, 1)")


def _non_negative(kind):
    """Sizes (int) and delays/periods (float): zero is fine, negative is not."""
    return _checked(kind, lambda v: v >= 0, ">= 0")


def _show_rows(title: str, rows: list[tuple[str, object]]) -> None:
    table = ResultTable(title, ["Metric", "Value"])
    for name, value in rows:
        table.add_row(name, value)
    table.show()


def _cmd_catalog(_args: argparse.Namespace) -> int:
    table = ResultTable(
        "Table 1 — DAQ rates of large instruments",
        ["Experiment", "DAQ rate", "Pattern", "Description"],
    )
    for spec in catalog():
        table.add_row(
            spec.name, format_rate(spec.daq_rate_bps), spec.pattern, spec.description
        )
    table.show()
    return 0


def _pilot_sample_every_ns(args: argparse.Namespace) -> int | None:
    """Validate the observability flag combination; ns period or None.

    Raises ``ValueError`` when a dependent flag is given without
    ``--sample-every`` (there would be no sampler to feed it).
    """
    sample_every_ns = (
        round(args.sample_every * 1000) if args.sample_every else None
    )
    if sample_every_ns is None:
        for flag in ("slo", "series", "chrome"):
            if getattr(args, flag):
                raise ValueError(f"--{flag} requires --sample-every")
    return sample_every_ns


def _build_watchdog(args: argparse.Namespace, sampler, tracer):
    """A watchdog over the run's sampler, or None without ``--slo``."""
    if not args.slo:
        return None
    from .obs import Watchdog

    return Watchdog(args.slo, sampler=sampler, tracer=tracer)


def _print_health(label: str, health) -> None:
    print(
        f"{label}: {health.rules} rules, {health.evaluations} evaluations, "
        f"{health.violations} violations"
    )
    for event in health.events:
        print(
            f"  VIOLATION {event.rule}: observed {event.observed} "
            f"at t={event.at_ns}ns ({event.series_name})"
        )


def _finish_obs(
    args: argparse.Namespace, sampler, tracer, watchdog, scenario: str
) -> bool:
    """Write series/Chrome/health artifacts; True when every SLO held."""
    if sampler is None:
        return True
    from .obs import counter_tracks, write_series

    print(
        f"\nsampler: {len(sampler)} series, {sampler.ticks} ticks, "
        f"{sampler.sample_emits} samples"
    )
    if args.series is not None:
        count = write_series(
            sampler, args.series, meta={"scenario": scenario, "seed": args.seed}
        )
        print(f"series: {count} series -> {args.series}")
    if args.chrome is not None:
        from .trace import write_chrome_trace

        events = tracer.events() if tracer is not None else []
        records = write_chrome_trace(
            events,
            args.chrome,
            process_name=f"repro {scenario}",
            counters=counter_tracks(sampler),
        )
        print(f"chrome trace: {records} records -> {args.chrome}")
    if watchdog is None:
        return True
    watchdog.check()
    health = watchdog.report()
    _print_health("slo", health)
    if args.health is not None:
        Path(args.health).write_text(
            json.dumps(health.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"health: -> {args.health}")
    return health.ok


def _stream_and_run(args: argparse.Namespace, testbed):
    """Split ``--messages`` over the testbed's flows (so total offered
    load matches the single-flow invocation), run, return the report."""
    testbed.send_split(args.messages, args.size, round(args.interval_us * 1000))
    return testbed.run()


def _write_artifacts(
    testbed, scenario: str, seed: int, *,
    telemetry: str | None = None, snapshot_meta: dict | None = None,
    trace: str | None = None, trace_meta: dict | None = None,
) -> bool:
    """Write the telemetry snapshot and/or JSONL trace a command was
    asked for; False (error already printed) if a file cannot be written."""
    what = "snapshot"
    try:
        if telemetry is not None:
            written = write_snapshot(
                testbed.collect_telemetry(),
                telemetry,
                meta={"scenario": scenario, "seed": seed,
                      "sim_now_ns": testbed.sim.now, **(snapshot_meta or {})},
            )
            print(f"\ntelemetry: {written - 1} metrics -> {telemetry}")
        if trace is not None:
            from .trace import write_trace

            what = "trace"
            records = write_trace(
                testbed.tracer, trace,
                meta={"scenario": scenario, "seed": seed, **(trace_meta or {})},
            )
            print(f"trace: {records - 1} events -> {trace}")
    except OSError as exc:
        print(f"error: cannot write {what}: {exc}", file=sys.stderr)
        return False
    return True


def _node_table(title: str, per_node: dict[int, dict[str, int]]) -> None:
    table = ResultTable(
        title, ["Node", "Delivered", "Bytes", "Windows", "Steered", "Fill%", "Alive"]
    )
    for index, row in sorted(per_node.items()):
        table.add_row(
            index, row["delivered"], row["bytes_delivered"],
            row["windows_assigned"], row["packets_steered"],
            row["fill_pct"], "yes" if row["alive"] else "no",
        )
    table.show()


def _cmd_pilot(args: argparse.Namespace) -> int:
    """The Fig. 4 pilot; ``--receivers N`` (N > 1) swaps DTN 2 for an
    N-node receiver farm behind the balancer — same ingest, same stream.
    """
    try:
        sample_every_ns = _pilot_sample_every_ns(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    farm = args.receivers > 1
    shared = dict(
        flows=args.flows,
        wan_delay_ns=round(args.wan_ms * MILLISECOND),
        wan_loss_rate=args.loss,
        age_budget_ns=round(args.age_budget_ms * MILLISECOND),
        telemetry=args.telemetry is not None,
        # --chrome merges spans with counter tracks, so it needs spans.
        trace=args.trace is not None or args.chrome is not None,
        sample_every_ns=sample_every_ns,
    )
    sim = Simulator(seed=args.seed)
    if farm:
        from .fleet import FarmConfig, ReceiverFarm

        scenario = "pilot-farm"
        testbed = ReceiverFarm(sim, FarmConfig(nodes=args.receivers, **shared))
        snapshot_meta = {"receivers": args.receivers, "messages": args.messages}
        trace_meta = {"receivers": args.receivers}
    else:
        scenario = "pilot"
        deadline_ns = round(args.deadline_ms * MILLISECOND)
        testbed = PilotTestbed(sim, PilotConfig(deadline_offset_ns=deadline_ns, **shared))
        snapshot_meta = {
            "messages": args.messages, "wan_ms": args.wan_ms, "loss": args.loss
        }
        trace_meta = {"flows": args.flows}
    try:
        watchdog = _build_watchdog(args, testbed.sampler, testbed.tracer)
    except ValueError as exc:
        print(f"error: bad --slo rule: {exc}", file=sys.stderr)
        return 2
    report = _stream_and_run(args, testbed)
    rows = [
        ("messages sent", report.messages_sent),
        ("delivered", report.delivered),
        ("complete", report.complete),
        ("NAKs sent / served", f"{report.naks_sent} / {report.naks_served}"),
        ("retransmissions", report.retransmissions),
        ("unrecovered", report.unrecovered),
    ]
    if farm:
        _show_rows(f"Pilot study, receiver farm (N={args.receivers})", rows + [
            ("balancer epoch / updates", f"{report.epoch} / {report.table_updates}"),
            ("windows redirected", report.redirected_windows),
        ])
        _node_table("Per-node breakdown", report.per_node)
        shares = [row["bytes_delivered"] for row in report.per_node.values()]
        print(f"\nnode-level Jain fairness: {jain_fairness(shares):.4f}")
    else:
        latencies = report.delivery_latencies_ns
        _show_rows("Pilot study (Fig. 4)", rows + [
            ("aged packets", report.aged_packets),
            ("deadline ok / miss", f"{report.deadline_ok} / {report.deadline_misses}"),
            ("p50 latency", format_duration(percentile(latencies, 0.5)) if latencies else "-"),
            ("p99 latency", format_duration(percentile(latencies, 0.99)) if latencies else "-"),
        ])
        if args.flows > 1:
            _flow_table(args.flows, report.per_flow)
    if not _write_artifacts(
        testbed, scenario, args.seed,
        telemetry=args.telemetry, snapshot_meta=snapshot_meta,
        trace=args.trace, trace_meta=trace_meta,
    ):
        return 1
    healthy = _finish_obs(args, testbed.sampler, testbed.tracer, watchdog, scenario)
    return 0 if report.complete and healthy else 1


def _flow_table(flows: int, per_flow: dict[int, dict[str, int]]) -> None:
    table = ResultTable(
        f"Per-flow breakdown ({flows} concurrent flows)",
        ["Flow", "Sent", "Delivered", "NAKs", "Retx", "Unrecovered", "Last delivery"],
    )
    for fid, row in sorted(per_flow.items()):
        table.add_row(
            fid, row["sent"], row["delivered"], row["naks_sent"],
            row["retransmissions"], row["unrecovered"],
            format_duration(row["last_delivery_ns"]),
        )
    table.show()
    normalized = [
        row["delivered"] / row["sent"] if row["sent"] else 0.0
        for row in per_flow.values()
    ]
    print(f"\nJain fairness index: {jain_fairness(normalized):.4f}")


def _cmd_fleet(args: argparse.Namespace) -> int:
    """Fleet-scale run: hundreds of flows over tens of receiver nodes.

    Prints the farm's judgment axes — per-node shares, node/flow Jain
    fairness, table-update latency, redirect recovery — and exits 0
    only when every flow completed.
    """
    from .fleet import FarmConfig, FleetConfig, FleetOrchestrator

    farm_cfg = FarmConfig(
        wan_delay_ns=round(args.wan_ms * MILLISECOND),
        wan_loss_rate=args.loss,
        window=args.window,
        retx_policy=args.retx_policy,
        telemetry=args.telemetry is not None,
    )
    config = FleetConfig(
        nodes=args.nodes,
        flows=args.flows,
        seed=args.seed,
        duration_ns=round(args.duration_ms * MILLISECOND),
        message_bytes=args.size,
        farm=farm_cfg,
        crash_node=args.crash_node,
        crash_at_ns=round(args.crash_at_ms * MILLISECOND),
    )
    try:
        orchestrator = FleetOrchestrator(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = orchestrator.run()
    fct = sorted(report.fct_ns.values())
    _show_rows(f"Receiver fleet ({args.nodes} nodes, {args.flows} flows)", [
        ("messages sent", report.farm.messages_sent),
        ("delivered", report.farm.delivered),
        ("complete", report.complete),
        ("unrecovered", report.farm.unrecovered),
        ("aggregate goodput", format_rate(round(report.aggregate_goodput_bps))),
        ("node fairness (Jain)", f"{report.node_fairness:.4f}"),
        ("flow fairness (Jain)", f"{report.flow_fairness:.4f}"),
        ("completion spread", format_duration(report.completion_spread_ns)),
        ("p50 FCT", format_duration(percentile(fct, 0.5)) if fct else "-"),
        ("p99 FCT", format_duration(percentile(fct, 0.99)) if fct else "-"),
        ("balancer epoch / updates",
         f"{report.farm.epoch} / {report.farm.table_updates}"),
        ("table-update latency", format_duration(report.farm.max_update_latency_ns)),
        ("windows redirected", report.farm.redirected_windows),
        ("redirect recovery", format_duration(report.recovery_ns)),
    ])
    _node_table("Per-node shares", report.per_node)
    if not _write_artifacts(
        orchestrator.farm, "fleet", args.seed, telemetry=args.telemetry,
        snapshot_meta={"nodes": args.nodes, "flows": args.flows},
    ):
        return 1
    return 0 if report.complete else 1


def _cmd_telemetry(args: argparse.Namespace) -> int:
    try:
        snap = read_snapshot(args.snapshot)
    except (OSError, TelemetryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    meta = {k: v for k, v in snap.meta.items() if k != "kind"}
    print(f"snapshot {args.snapshot}: " + ", ".join(
        f"{k}={v}" for k, v in sorted(meta.items())
    ))

    histograms = snap.of_kind("histogram")
    if histograms:
        table = ResultTable(
            "Histograms (quantiles are bucket upper bounds)",
            ["Metric", "Labels", "Count", "p50", "p99", "Max"],
        )
        for metric in histograms:
            if not args.all and metric["count"] == 0:
                continue
            fmt = format_duration if metric["name"].endswith("_ns") else str
            quantiles = [
                quantile_from_buckets(
                    metric["buckets"], metric["overflow"], metric["count"], q,
                    observed_max=metric.get("max"),
                )
                for q in (0.5, 0.99)
            ]
            table.add_row(
                metric["name"],
                _format_labels(metric["labels"]),
                metric["count"],
                *(fmt(q) if q is not None else "-" for q in quantiles),
                fmt(metric["max"]) if metric["max"] is not None else "-",
            )
        table.show()

    gauges = snap.of_kind("gauge")
    if gauges:
        table = ResultTable("Gauges", ["Metric", "Labels", "Value", "Peak"])
        for metric in gauges:
            if not args.all and metric["value"] == 0 and metric["peak"] == 0:
                continue
            table.add_row(
                metric["name"],
                _format_labels(metric["labels"]),
                metric["value"],
                metric["peak"],
            )
        table.show()

    counters = snap.of_kind("counter")
    if counters:
        table = ResultTable("Counters", ["Metric", "Labels", "Value"])
        for metric in counters:
            if not args.all and metric["value"] == 0:
                continue
            table.add_row(
                metric["name"], _format_labels(metric["labels"]), metric["value"]
            )
        table.show()
    return 0


def _format_labels(labels: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items())) or "-"


def _cmd_compare(args: argparse.Namespace) -> int:
    config = ScenarioConfig(
        message_count=args.messages,
        message_interval_ns=round(args.interval_us * 1000),
        wan_delay_ns=round(args.wan_ms * MILLISECOND),
        wan_loss_rate=args.loss,
    )
    today = TodayScenario(config=config).run()
    mmt = MultimodalScenario(config=config).run()
    table = ResultTable(
        "Fig. 2 (today) vs Fig. 3 (multi-modal)",
        ["Pipeline", "Delivered", "Storage p50", "Storage p99", "Notes"],
    )
    table.add_row(
        "today (UDP+TCP)",
        f"{today.storage_delivered}/{today.sent}",
        format_duration(percentile(today.storage_latencies_ns, 0.5)),
        format_duration(percentile(today.storage_latencies_ns, 0.99)),
        f"TCP retx {today.extras['tcp_wan_retransmits']}",
    )
    table.add_row(
        "multi-modal (MMT)",
        f"{mmt.storage_delivered}/{mmt.sent}",
        format_duration(percentile(mmt.storage_latencies_ns, 0.5)),
        format_duration(percentile(mmt.storage_latencies_ns, 0.99)),
        f"NAKs {mmt.extras['naks']}, unrecovered {mmt.extras['unrecovered']}",
    )
    table.show()
    return 0


def _cmd_supernova(args: argparse.Namespace) -> int:
    results = supernova_compare(SupernovaConfig(), seed=args.seed)
    table = ResultTable(
        "Supernova early warning (DUNE -> Vera Rubin)",
        ["Dataflow", "Warning latency"],
    )
    for mode, result in results.items():
        latency = result.warning_latency_ns
        table.add_row(mode, format_duration(latency) if latency is not None else "no alert")
    table.show()
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Run the pilot under a named fault scenario (or all of them).

    Emits ``BENCH_chaos.json`` — every metric is simulation-derived, so
    the file is byte-identical across runs with the same seed. Exit
    code 0 means every run either recovered completely or degraded
    gracefully (recorded mode degradation, no NAK storm) where the
    scenario leaves no live buffer.
    """
    from .faults import ChaosConfig, run_chaos, run_scenarios, write_bench

    cfg = ChaosConfig(
        messages=args.messages,
        payload_size=args.size,
        interval_ns=round(args.interval_us * 1000),
        seed=args.seed,
    )
    if args.scenario == "all":
        runs = run_scenarios(cfg, jobs=args.jobs)
    else:
        runs = [run_chaos(dataclasses.replace(cfg, scenario=args.scenario))]
    table = ResultTable(
        "Chaos scenarios (Fig. 4 pilot under fault injection)",
        ["Scenario", "Delivered", "Unrecovered", "NAKs sent/served",
         "Time to recover", "Degradations", "Failovers"],
    )
    for run in runs:
        r = run.report
        table.add_row(
            run.scenario,
            f"{r.delivered}/{r.messages_sent}",
            r.unrecovered,
            f"{r.naks_sent} / {r.naks_served}",
            format_duration(r.time_to_recover_ns),
            r.mode_degradations + r.element_degradations,
            r.buffer_failovers,
        )
    table.show()
    path = write_bench(runs, args.out_dir)
    print(f"\nwrote {path}")
    return 0 if all(run.passed for run in runs) else 1


def _cmd_soak(args: argparse.Namespace) -> int:
    """Run the long-soak endurance harness and write ``BENCH_soak.json``.

    Hours-equivalent simulated time under churn with bounded-memory
    assertions at every epoch boundary. Any violated size budget,
    growth slope, or unrecovered loss is printed as a health event and
    exits 1. Every reported value is simulation-derived, so the bench
    file is byte-identical per seed.
    """
    from .soak import SoakConfig, run_soak, write_bench

    if args.ci:
        cfg = SoakConfig.ci(seed=args.seed)
    else:
        cfg = SoakConfig(seed=args.seed)
    if args.duration_s is not None:
        cfg.duration_ns = round(args.duration_s * 1_000_000_000)
    report = run_soak(cfg)
    _show_rows(f"Endurance soak ({format_duration(report.duration_ns)} simulated)", [
        ("messages sent (steady + poisson)",
         f"{report.messages_sent} ({report.steady_sent} + {report.poisson_sent})"),
        ("delivered", report.delivered),
        ("unrecovered", report.unrecovered),
        ("NAKs sent / served", f"{report.naks_sent} / {report.naks_served}"),
        ("losses (link down / loss model)",
         f"{report.lost_down} / {report.lost_model}"),
        ("faults fired", f"{report.faults_fired}/{report.faults_injected}"),
        ("mode degrade / upgrade / stuck",
         f"{report.mode_degradations} / {report.mode_upgrades} / "
         f"{report.degraded_final}"),
        ("mode-map rewrites", report.mode_rewrites),
        ("link rate / delay changes",
         f"{report.link_rate_changes} / {report.link_delay_changes}"),
        ("GE parameter drifts", report.ge_drifts),
        ("peak retx residency",
         f"{report.peak_retx_bytes} B ({report.peak_retx_occupancy_pct}% of cap)"),
        ("peak guard / trace / series",
         f"{report.peak_guard_entries} / {report.peak_trace_events} / "
         f"{report.peak_registry_series}"),
        ("growth (retx B / guard / trace / series)",
         f"{report.growth_retx_bytes} / {report.growth_guard_entries} / "
         f"{report.growth_trace_events} / {report.growth_registry_series}"),
        ("fleet delivered",
         f"{report.fleet_delivered}/{report.fleet_messages} "
         f"({report.fleet_flaps} node flaps)"),
        ("fleet unrecovered", report.fleet_unrecovered),
        ("budget violations", report.budget_violations),
        ("complete", report.complete),
    ])
    path = write_bench(report, cfg, args.out_dir)
    print(f"\nwrote {path}")
    _print_health("budgets", report.health)
    return 0 if report.complete else 1


def _cmd_incast(args: argparse.Namespace) -> int:
    """Run the Fig. 2 incast head-to-head grid and write
    ``BENCH_fct_grid.json``.

    Every cell is a pure function of its seeded config, so the merged
    artifact is byte-identical across reruns and for every ``--jobs N``.
    Exit code 0 requires, in every highest-fan-in MMT cell: every flow
    completed, zero drops when K <= 0.2, and (at load >= 1) a p99 FCT no
    worse than TCP's.
    """
    from .integration.incast import (
        case_label,
        grid_configs,
        run_grid,
        small_grid,
        write_bench,
    )

    seeds = tuple(args.seed) if args.seed else (7, 42)
    if args.grid == "small":
        configs = small_grid(seeds=seeds)
    else:
        configs = grid_configs(seeds=seeds)
    from .analysis.shard import heartbeat

    labeled = run_grid(
        configs, jobs=args.jobs, progress=heartbeat(prefix="incast")
    )
    by_label = dict(labeled)

    table = ResultTable(
        "Incast head-to-head (ECN leaf-spine fan-in, FCT per transport)",
        ["Cell", "Done", "p50 FCT", "p99 FCT", "CE marks", "Drops"],
    )
    for config in configs:
        row = by_label[case_label(config)]
        table.add_row(
            case_label(config),
            f"{row['completed']}/{row['flows']}",
            format_duration(row["fct_p50_ns"]) if row["fct_p50_ns"] else "-",
            format_duration(row["fct_p99_ns"]) if row["fct_p99_ns"] else "-",
            row["ce_marked"],
            row["dropped"],
        )
    table.show()
    path = write_bench(labeled, configs, args.out_dir)
    print(f"\nwrote {path}")

    # The paper's claims, as a gate, at the deepest fan-in: MMT completes
    # every flow; with an early marking threshold (K <= 0.2 of the
    # buffer) its pacing keeps the fan-in lossless; and once queues
    # dominate (offered load at or above the bottleneck) its tail is no
    # worse than TCP's. Underloaded cells stay out of the tail gate —
    # with no standing queue there is nothing for ECN pacing to win.
    max_n = max(config.senders for config in configs)
    failures = []
    for config in configs:
        if config.transport != "mmt" or config.senders != max_n:
            continue
        label = case_label(config)
        mmt_row = by_label[label]
        if mmt_row["completed"] != mmt_row["flows"]:
            failures.append(f"{label}: {mmt_row['completed']}/{mmt_row['flows']} flows done")
        if config.mark_threshold <= 0.2 and mmt_row["dropped"]:
            failures.append(f"{label}: {mmt_row['dropped']} drops")
        tcp_row = by_label.get(case_label(dataclasses.replace(config, transport="tcp")))
        if config.load < 1.0 or tcp_row is None:
            continue
        mmt_p99, tcp_p99 = mmt_row["fct_p99_ns"], tcp_row["fct_p99_ns"]
        if mmt_p99 is None or (tcp_p99 is not None and mmt_p99 > tcp_p99):
            failures.append(f"{label}: mmt p99={mmt_p99} vs tcp p99={tcp_p99}")
    for failure in failures:
        print(f"FCT GATE FAILED at {failure}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Causal tracing: run a traced pilot (or load a trace file) and
    dump, filter, export, or root-cause it.

    With ``--input`` the events come from a previously written trace
    file; otherwise an embedded pilot run produces them (and
    ``--verify-int`` can cross-check them against INT postcards, which
    needs the live run). Exit code 1 when ``--verify-int`` finds any
    divergence.
    """
    from .trace import (
        TraceError,
        attach_recording_sink,
        format_timeline,
        load_trace,
        select_timeline,
        summarize_anomalies,
        trace_digest,
        verify_int_consistency,
        write_chrome_trace,
    )

    sink = None
    if args.input is not None:
        if args.verify_int:
            print(
                "error: --verify-int needs a live run (INT postcards are not"
                " in the trace file); drop --input",
                file=sys.stderr,
            )
            return 2
        try:
            meta, events = load_trace(args.input)
        except (OSError, TraceError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        origin = args.input
    else:
        config = PilotConfig(
            wan_delay_ns=round(args.wan_ms * MILLISECOND),
            wan_loss_rate=args.loss,
            telemetry=args.verify_int,
            flows=args.flows,
            trace=True,
            trace_capacity=args.capacity,
        )
        pilot = PilotTestbed(sim=Simulator(seed=args.seed), config=config)
        if args.verify_int:
            sink = attach_recording_sink(pilot)
        report = _stream_and_run(args, pilot)
        tracer = pilot.tracer
        events = tracer.events()
        print(
            f"pilot: {report.delivered}/{report.messages_sent} delivered, "
            f"{tracer.events_emitted} spans emitted, "
            f"{tracer.events_retained} retained "
            f"({tracer.events_pinned} pinned, {tracer.events_evicted} evicted)"
        )
        if not _write_artifacts(
            pilot, "pilot", args.seed, trace=args.out, trace_meta={"flows": args.flows}
        ):
            return 1
        origin = "embedded pilot run"

    if args.flow is not None:
        events = [e for e in events if (e.flow_id or 0) == args.flow]
    if args.seq is not None:
        events = [e for e in events if e.seq == args.seq]

    if args.chrome is not None:
        try:
            written = write_chrome_trace(events, args.chrome)
        except OSError as exc:
            print(f"error: cannot write chrome trace: {exc}", file=sys.stderr)
            return 1
        print(f"chrome trace: {written} records -> {args.chrome} "
              "(load in Perfetto / chrome://tracing)")

    if args.timeline is not None:
        try:
            exp, flow, seq = (int(part, 0) for part in args.timeline.split(":"))
        except ValueError:
            print(
                f"error: --timeline wants EXPERIMENT:FLOW:SEQ, got {args.timeline!r}",
                file=sys.stderr,
            )
            return 2
        print(format_timeline(select_timeline(events, exp, flow, seq), exp, flow, seq))
    elif args.anomalies:
        anomalies = summarize_anomalies(events)
        if not anomalies:
            print("no anomalous packets")
        else:
            table = ResultTable(
                f"Anomalous packets ({origin})",
                ["Experiment", "Flow", "Seq", "Anomalies"],
            )
            for (exp, flow, seq), kinds in anomalies:
                table.add_row(exp, flow, seq, " -> ".join(kinds))
            table.show()
    elif args.dump:
        for event in events[: args.limit]:
            ident = event.identity
            tag = f"{ident[0]}/{ident[1]}/{ident[2]}" if ident else "-"
            attrs = " ".join(
                f"{k}={v}" for k, v in sorted((event.attrs or {}).items())
            )
            print(f"{event.ts_ns:>12} ns  {event.element:<18} "
                  f"{event.kind:<16} {tag:<18} {attrs}")
        if len(events) > args.limit:
            print(f"... {len(events) - args.limit} more (raise --limit)")

    print(f"digest: sha256:{trace_digest(events)} over {len(events)} events")

    if args.verify_int:
        assert sink is not None
        result = verify_int_consistency(events, sink)
        print(
            f"INT consistency: {result.postcards_checked} postcards over "
            f"{result.packets_checked} packets, {len(result.mismatches)} mismatches"
        )
        for mismatch in result.mismatches[:20]:
            print(f"  MISMATCH: {mismatch}")
        if not result.ok:
            return 1
    return 0


def _cmd_header(_args: argparse.Namespace) -> int:
    registry = extended_registry()
    table = ResultTable(
        "MMT wire format per mode (§5.2)",
        ["Mode", "Config id", "Header bytes", "Active features"],
    )
    ctx = TransitionContext(
        now_ns=0, seq=0, buffer_addr="10.0.0.1", deadline_ns=1,
        notify_addr="10.0.0.2", age_budget_ns=1, pace_rate_mbps=1,
        source_addr="10.0.0.3", dup_group=0, dup_copies=1,
    )
    for mode in registry:
        header = MmtHeader(config_id=0, experiment_id=0)
        transition(header, mode, ctx)
        features = [f.name.lower() for f in type(header.features) if f and header.features & f]
        table.add_row(mode.name, mode.config_id, header.size_bytes, ", ".join(features) or "-")
    table.show()
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """``repro report``: bench regression diff + health rendering.

    Exit status is machine-readable: 0 = everything within tolerance
    and every SLO held, 1 = unusable inputs (missing files, broken
    provenance) or a violated health report, 3 = at least one timing
    regression or deterministic-metric drift.
    """
    from .obs import (
        EXIT_ERROR,
        EXIT_OK,
        EXIT_REGRESSION,
        HealthReport,
        ReportError,
        diff_bench_files,
        render_diff,
    )

    status = EXIT_OK
    payload: dict = {"benches": [], "health": None}

    health = None
    if args.health is not None:
        try:
            health = HealthReport.from_dict(
                json.loads(Path(args.health).read_text(encoding="utf-8"))
            )
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot read health report: {exc}", file=sys.stderr)
            return EXIT_ERROR
        _print_health("health", health)
        payload["health"] = health.to_dict()
        if not health.ok:
            status = EXIT_ERROR

    fresh_dir, baseline_dir = Path(args.fresh), Path(args.baseline)
    names = list(args.bench)
    if not names:
        fresh_names = {p.name for p in fresh_dir.glob("BENCH_*.json")}
        base_names = {p.name for p in baseline_dir.glob("BENCH_*.json")}
        names = sorted(
            name[len("BENCH_") : -len(".json")]
            for name in fresh_names & base_names
        )
    if not names and health is None:
        print(
            "error: nothing to report (no shared BENCH_*.json files and "
            "no --health)",
            file=sys.stderr,
        )
        return EXIT_ERROR

    for name in names:
        try:
            diff = diff_bench_files(
                fresh_dir / f"BENCH_{name}.json",
                baseline_dir / f"BENCH_{name}.json",
                tolerance=args.tolerance,
            )
        except ReportError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR
        print(render_diff(diff, show_ok=args.all))
        payload["benches"].append(diff.to_dict())
        if not diff.ok:
            status = EXIT_REGRESSION

    payload["status"] = status
    if args.json is not None:
        Path(args.json).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"report: -> {args.json}")
    return status


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multi-modal DAQ transport — paper experiments from the shell.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog", help="print the Table 1 experiment catalog")

    pilot = sub.add_parser("pilot", help="run the Fig. 4 pilot study")
    pilot.add_argument("--messages", type=_positive_int, default=1000)
    pilot.add_argument("--size", type=_non_negative(int), default=8000)
    pilot.add_argument("--interval-us", type=_non_negative(float), default=2.0)
    pilot.add_argument("--wan-ms", type=_non_negative(float), default=10.0)
    pilot.add_argument("--loss", type=_loss_rate, default=0.0)
    pilot.add_argument("--age-budget-ms", type=_non_negative(float), default=50.0)
    pilot.add_argument("--deadline-ms", type=_positive_float, default=5.0)
    pilot.add_argument("--seed", type=int, default=42)
    pilot.add_argument(
        "--flows",
        type=_positive_int,
        default=1,
        help="concurrent flows sharing the pilot path (default 1; "
        "the message budget is split across them)",
    )
    pilot.add_argument(
        "--receivers",
        type=_positive_int,
        default=1,
        help="receiver DTNs terminating the stream (default 1 = the "
        "historical single-DTN pilot; N > 1 fans out over a farm "
        "behind the EJ-FAT-style balancer)",
    )
    pilot.add_argument(
        "--telemetry",
        metavar="FILE",
        default=None,
        help="enable telemetry and write a JSONL snapshot to FILE",
    )
    pilot.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="enable causal tracing and write a JSONL trace to FILE",
    )
    pilot.add_argument(
        "--sample-every",
        type=_non_negative(float),
        metavar="US",
        default=None,
        help="enable the on-clock observability sampler with this "
        "period in microseconds (off by default: zero overhead)",
    )
    pilot.add_argument(
        "--series",
        metavar="FILE",
        default=None,
        help="write the sampled time series as JSONL to FILE "
        "(requires --sample-every)",
    )
    pilot.add_argument(
        "--chrome",
        metavar="FILE",
        default=None,
        help="write a Chrome/Perfetto trace merging causal spans with "
        "sampled counter tracks to FILE (requires --sample-every; "
        "implies tracing)",
    )
    pilot.add_argument(
        "--slo",
        action="append",
        metavar="RULE",
        default=[],
        help="declarative SLO rule, e.g. 'queue_bytes p99 <= 262144' "
        "(repeatable; requires --sample-every; violations pin the "
        "flight recorder and fail the run)",
    )
    pilot.add_argument(
        "--health",
        metavar="FILE",
        default=None,
        help="write the SLO health report as JSON to FILE",
    )

    fleet = sub.add_parser(
        "fleet", help="fleet-scale run: N receiver nodes, M concurrent flows"
    )
    fleet.add_argument("--nodes", type=_positive_int, default=4,
                       help="receiver DTNs behind the balancer")
    fleet.add_argument("--flows", type=_positive_int, default=16,
                       help="concurrent DAQ flows (even steady, odd bursty)")
    fleet.add_argument("--duration-ms", type=_positive_float, default=2.0,
                       help="generator window per flow")
    fleet.add_argument("--size", type=_positive_int, default=4000)
    fleet.add_argument("--seed", type=int, default=7)
    fleet.add_argument("--wan-ms", type=_non_negative(float), default=1.0,
                       help="balancer -> node one-way delay")
    fleet.add_argument("--loss", type=_loss_rate, default=0.0,
                       help="random loss on the balancer -> node legs")
    fleet.add_argument("--window", type=_positive_int, default=16,
                       help="event-window size (seqs per sticky tick)")
    fleet.add_argument("--retx-policy", choices=("rebind", "follow"),
                       default="rebind",
                       help="what retransmissions do when their window's "
                       "node died between sync ticks")
    fleet.add_argument("--crash-node", type=int, default=None,
                       help="crash this node index mid-run")
    fleet.add_argument("--crash-at-ms", type=float, default=1.05,
                       help="when to crash it (default sits off the sync-tick "
                       "grid, so the detection gap is visible)")
    fleet.add_argument(
        "--telemetry", metavar="FILE", default=None,
        help="enable telemetry and write a JSONL snapshot to FILE",
    )

    trace = sub.add_parser(
        "trace", help="causal tracing: run, dump, export, root-cause"
    )
    trace.add_argument(
        "--input", metavar="FILE", default=None,
        help="load an existing trace file instead of running the pilot",
    )
    trace.add_argument("--out", metavar="FILE", default=None,
                       help="write the run's JSONL trace to FILE")
    trace.add_argument("--chrome", metavar="FILE", default=None,
                       help="write a Chrome/Perfetto trace-event file")
    trace.add_argument(
        "--timeline", metavar="EXP:FLOW:SEQ", default=None,
        help="print the causal timeline of one packet identity",
    )
    trace.add_argument("--anomalies", action="store_true",
                       help="list anomalous packets and what happened to them")
    trace.add_argument("--dump", action="store_true",
                       help="print retained events (see --limit)")
    trace.add_argument("--limit", type=_non_negative(int), default=40,
                       help="max events printed by --dump (default 40)")
    trace.add_argument("--flow", type=int, default=None,
                       help="filter events to one flow id")
    trace.add_argument("--seq", type=int, default=None,
                       help="filter events to one sequence number")
    trace.add_argument(
        "--verify-int", action="store_true",
        help="cross-check trace spans against INT postcards (tolerance 0)",
    )
    trace.add_argument("--capacity", type=_positive_int, default=None,
                       help="flight-recorder ring capacity (default: unbounded)")
    trace.add_argument("--messages", type=_positive_int, default=200)
    trace.add_argument("--size", type=_non_negative(int), default=8000)
    trace.add_argument("--interval-us", type=_non_negative(float), default=2.0)
    trace.add_argument("--wan-ms", type=_non_negative(float), default=10.0)
    trace.add_argument("--loss", type=_loss_rate, default=0.0)
    trace.add_argument("--seed", type=int, default=42)
    trace.add_argument("--flows", type=_positive_int, default=1)

    comparison = sub.add_parser("compare", help="Fig. 2 vs Fig. 3 head-to-head")
    comparison.add_argument("--messages", type=_positive_int, default=1000)
    comparison.add_argument("--interval-us", type=_non_negative(float), default=128.0)
    comparison.add_argument("--wan-ms", type=_non_negative(float), default=25.0)
    comparison.add_argument("--loss", type=_loss_rate, default=0.001)

    supernova = sub.add_parser("supernova", help="DUNE -> Rubin early warning")
    supernova.add_argument("--seed", type=int, default=11)

    sub.add_parser("header", help="wire-format cost per mode")

    chaos = sub.add_parser("chaos", help="run the pilot under fault injection")
    chaos.add_argument(
        "--scenario", choices=(*SCENARIOS, "all"), default=next(iter(SCENARIOS))
    )
    chaos.add_argument("--messages", type=_positive_int, default=500)
    chaos.add_argument("--size", type=_non_negative(int), default=8000)
    chaos.add_argument("--interval-us", type=_positive_float, default=2.0)
    chaos.add_argument("--seed", type=int, default=42)
    chaos.add_argument(
        "--out-dir", default=".", help="directory for BENCH_chaos.json"
    )
    chaos.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="with --scenario all: shard the scenario matrix across N "
        "worker processes (BENCH_chaos.json is identical for every N)",
    )

    soak = sub.add_parser(
        "soak", help="long-soak endurance run with bounded-memory assertions"
    )
    soak.add_argument(
        "--ci", action="store_true",
        help="the CI smoke preset: ~60 s simulated with denser traffic "
        "(default is the full one-hour soak)",
    )
    soak.add_argument(
        "--duration-s", type=_positive_float, default=None,
        help="override the simulated duration in seconds",
    )
    soak.add_argument("--seed", type=int, default=42)
    soak.add_argument(
        "--out-dir", default=".", help="directory for BENCH_soak.json"
    )

    incast = sub.add_parser(
        "incast", help="ECN leaf-spine incast FCT head-to-head (Fig. 2)"
    )
    incast.add_argument(
        "--grid", choices=("small", "full"), default="small",
        help="small = CI smoke (one K, N in {4, 16}); full = the whole "
        "{K, L, N, sym/asym} matrix",
    )
    incast.add_argument(
        "--seed", type=int, action="append", default=None,
        help="grid seed; repeatable (default: 7 and 42)",
    )
    incast.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="shard grid cells across N worker processes "
        "(BENCH_fct_grid.json is identical for every N)",
    )
    incast.add_argument(
        "--out-dir", default=".", help="directory for BENCH_fct_grid.json"
    )

    telemetry = sub.add_parser("telemetry", help="render a telemetry snapshot")
    telemetry.add_argument("snapshot", help="JSONL snapshot file (repro pilot --telemetry)")
    telemetry.add_argument(
        "--all", action="store_true", help="include zero-valued metrics"
    )

    report = sub.add_parser(
        "report",
        help="diff fresh BENCH_*.json results against committed "
        "baselines and render run health",
    )
    report.add_argument(
        "--fresh", default=".", metavar="DIR",
        help="directory holding the freshly produced BENCH_*.json files",
    )
    report.add_argument(
        "--baseline", default=".", metavar="DIR",
        help="directory holding the committed baselines (default: repo root)",
    )
    report.add_argument(
        "--bench", action="append", default=[], metavar="NAME",
        help="bench name to diff, e.g. fig4_pilot (repeatable; default: "
        "every name present in both directories)",
    )
    report.add_argument(
        "--tolerance", type=float, default=0.2,
        help="allowed ratio band for timing metrics (default 0.2 = ±20%%; "
        "deterministic counters always compare exactly)",
    )
    report.add_argument(
        "--health", metavar="FILE", default=None,
        help="render an SLO health report JSON (repro pilot --health)",
    )
    report.add_argument(
        "--all", action="store_true", help="show within-tolerance rows too"
    )
    report.add_argument(
        "--json", metavar="FILE", default=None,
        help="write the machine-readable diff (status + rows) to FILE",
    )
    return parser


_COMMANDS = {
    "catalog": _cmd_catalog,
    "pilot": _cmd_pilot,
    "compare": _cmd_compare,
    "supernova": _cmd_supernova,
    "header": _cmd_header,
    "telemetry": _cmd_telemetry,
    "chaos": _cmd_chaos,
    "incast": _cmd_incast,
    "soak": _cmd_soak,
    "fleet": _cmd_fleet,
    "trace": _cmd_trace,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    """Console entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
