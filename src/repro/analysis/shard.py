"""Deterministic multi-core campaign sharding.

A *campaign* is a batch of independent seeded simulation runs — a seed
sweep, a scenario matrix, a parameter grid. Each run already owns its
own :class:`~repro.netsim.engine.Simulator` (and therefore its own
named RNG streams), so runs share no state and can execute in any
order on any core. This module fans a campaign across worker
processes and merges the results with stable ordering, under one
contract:

**the merged artifact is byte-identical for every ``--jobs N``.**

Three rules make that hold:

1. every task is a pure function of its picklable config — workers
   never read global mutable state, and each builds its simulator from
   the config's seed;
2. ``jobs <= 1`` runs the tasks inline, in order, with no worker
   processes at all — so ``--jobs 1`` *is* the sequential baseline by
   construction, not by equivalence argument;
3. results come back in task-submission order (``Pool.map`` preserves
   it), and merge helpers sort by explicit case labels — never by
   completion time.

Workers are spawned with the ``fork`` start method when the platform
offers it (cheap, inherits the imported tree) and fall back to
``spawn`` elsewhere; either way the worker callables live at module
level so they pickle by qualified name.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..telemetry.benchfmt import BenchResult

__all__ = [
    "ShardError",
    "TracedPilotCase",
    "campaign_digest",
    "fleet_case_metrics",
    "heartbeat",
    "incast_case_metrics",
    "merge_campaign",
    "merge_series",
    "multiflow_case_metrics",
    "run_sharded",
    "run_traced_pilot_case",
    "sampled_pilot_series_shard",
]


class ShardError(Exception):
    """Raised for invalid sharding requests."""


def _pool_context():
    """Fork where available (cheap, inherits imports), else spawn."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platforms without fork
        return multiprocessing.get_context("spawn")


def run_sharded(
    worker: Callable[[Any], Any],
    tasks: Sequence[Any],
    jobs: int = 1,
    progress: Callable[[int, int, Any], None] | None = None,
) -> list[Any]:
    """Apply ``worker`` to every task, fanning across ``jobs`` processes.

    Results are returned in task order regardless of which worker
    finished first. ``jobs <= 1`` (or a single task) runs inline in the
    calling process — the sequential baseline every parallel run must
    reproduce. ``worker`` must be a module-level callable and each task
    must be picklable; both are requirements of the ``spawn`` fallback
    and good hygiene under ``fork``.

    ``progress`` (optional) is called as ``progress(index, total,
    result)`` after each task completes, in task order — the campaign
    heartbeat hook (:func:`heartbeat`). It runs in the calling process
    and never touches the results, so it cannot perturb a campaign.
    """
    if jobs < 0:
        raise ShardError(f"jobs must be >= 0, got {jobs}")
    tasks = list(tasks)
    if jobs <= 1 or len(tasks) <= 1:
        results = []
        for index, task in enumerate(tasks):
            result = worker(task)
            if progress is not None:
                progress(index, len(tasks), result)
            results.append(result)
        return results
    processes = min(jobs, len(tasks))
    context = _pool_context()
    with context.Pool(processes=processes) as pool:
        # chunksize=1: tasks are coarse (whole simulations), so favor
        # balance over batching; order is preserved by map()/imap().
        if progress is None:
            return pool.map(worker, tasks, chunksize=1)
        results = []
        for index, result in enumerate(pool.imap(worker, tasks, chunksize=1)):
            progress(index, len(tasks), result)
            results.append(result)
        return results


def heartbeat(prefix: str = "shard", stream=None) -> Callable[[int, int, Any], None]:
    """A ``progress`` callback printing per-shard heartbeat lines.

    Lines go to stderr (or ``stream``) as ``[shard k/n] label`` — the
    label is taken from ``(label, ...)`` tuple results when present, so
    campaign workers get named progress for free.
    """

    def _progress(index: int, total: int, result: Any) -> None:
        label = ""
        if isinstance(result, tuple) and result and isinstance(result[0], str):
            label = result[0]
        line = f"[{prefix} {index + 1}/{total}] {label}".rstrip()
        print(line, file=stream if stream is not None else sys.stderr, flush=True)

    return _progress


# -- merge helpers ------------------------------------------------------------


def merge_campaign(
    name: str,
    labeled_metrics: Sequence[tuple[str, dict]],
    params: dict | None = None,
    seed: int | None = None,
) -> BenchResult:
    """Merge per-case metric dicts into one :class:`BenchResult`.

    Cases are recorded sorted by label — the merge order (and therefore
    the serialized artifact) depends only on the case labels, never on
    which shard finished first. Duplicate labels are rejected: they
    would silently overwrite each other in the metrics dict.
    """
    labels = [label for label, _ in labeled_metrics]
    if len(set(labels)) != len(labels):
        raise ShardError(f"duplicate case labels in campaign: {sorted(labels)}")
    bench = BenchResult(name=name, params=dict(params or {}), seed=seed)
    for label, metrics in sorted(labeled_metrics, key=lambda pair: pair[0]):
        bench.record(label, **metrics)
    return bench


def merge_series(
    labeled_series: Sequence[tuple[str, list[dict]]],
) -> list[dict]:
    """Merge per-shard sample-series records into one campaign set.

    Each shard contributes ``(shard_label, records)`` where records are
    ``repro.obs.series_records`` output; the shard label becomes a
    ``shard`` label on every series, and the merge is sorted by
    ``(metric, labels)`` — the result depends only on the cases, never
    on the job count (pinned by ``repro.obs.series_digest``).
    """
    labels = [label for label, _ in labeled_series]
    if len(set(labels)) != len(labels):
        raise ShardError(f"duplicate shard labels: {sorted(labels)}")
    merged: list[dict] = []
    for shard_label, records in labeled_series:
        for record in records:
            tagged = dict(record["labels"])
            tagged["shard"] = shard_label
            merged.append(
                {
                    "metric": record["metric"],
                    "labels": tagged,
                    "points": [list(point) for point in record["points"]],
                }
            )
    merged.sort(key=lambda r: (r["metric"], sorted(r["labels"].items())))
    return merged


def campaign_digest(results: Any) -> str:
    """sha256 over the canonical JSON of ``results``.

    The pin for shard-determinism tests: identical merged campaigns
    hash identically, regardless of job count or completion order.
    """
    canonical = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# -- campaign workers ---------------------------------------------------------
#
# Module-level so they pickle under spawn. Each takes one picklable
# config and returns plain data (dicts of ints/floats/strings) — live
# simulation objects never cross the process boundary.


def multiflow_case_metrics(config) -> tuple[str, dict]:
    """Run one :class:`~repro.integration.multiflow.MultiFlowConfig`
    case; returns ``(label, flat metrics)`` suitable for merging."""
    from ..integration.multiflow import MultiFlowOrchestrator

    report = MultiFlowOrchestrator(config).run()
    label = f"seed{config.seed:06d}_flows{config.flows}"
    return label, {
        "flows": report.flows,
        "duration_ns": report.duration_ns,
        "delivered": report.pilot.delivered,
        "messages_sent": report.pilot.messages_sent,
        "unrecovered": report.pilot.unrecovered,
        "retransmissions": report.pilot.retransmissions,
        "aggregate_goodput_bps": round(report.aggregate_goodput_bps, 3),
        "fairness": round(report.fairness, 9),
        "completion_spread_ns": report.completion_spread_ns,
        "complete": int(report.complete),
    }


def incast_case_metrics(config) -> tuple[str, dict]:
    """Run one :class:`~repro.integration.incast.IncastConfig` grid
    cell; returns ``(label, flat metrics)`` suitable for merging."""
    from ..integration.incast import case_label, run_incast

    report = run_incast(config)
    return case_label(config), report.as_metrics()


def fleet_case_metrics(config) -> tuple[str, dict]:
    """Run one :class:`~repro.fleet.orchestrator.FleetConfig` case;
    returns ``(label, flat metrics)`` suitable for merging."""
    from ..fleet.orchestrator import FleetOrchestrator

    report = FleetOrchestrator(config).run()
    label = f"seed{config.seed:06d}_nodes{config.nodes}_flows{config.flows}"
    return label, {
        "nodes": report.nodes,
        "flows": report.flows,
        "delivered": sum(row["delivered"] for row in report.per_flow.values()),
        "unrecovered": sum(row["unrecovered"] for row in report.per_flow.values()),
        "aggregate_goodput_bps": round(report.aggregate_goodput_bps, 3),
        "flow_fairness": round(report.flow_fairness, 9),
        "node_fairness": round(report.node_fairness, 9),
        "completion_spread_ns": report.completion_spread_ns,
        "recovery_ns": report.recovery_ns,
        "complete": int(report.complete),
    }


@dataclass(frozen=True)
class TracedPilotCase:
    """One traced pilot run in a campaign (fully picklable)."""

    seed: int = 42
    messages: int = 100
    flows: int = 1
    payload_size: int = 8000
    interval_ns: int = 2_000
    wan_delay_ns: int = 1_000_000
    wan_loss_rate: float = 0.0
    trace_capacity: int | None = None
    #: On-clock sampling period (0 = no sampler; the historical build).
    sample_every_ns: int = 0
    extra: dict = field(default_factory=dict)


def _run_pilot_case(case: TracedPilotCase, trace: bool):
    """Build and run one case's pilot; returns ``(label, pilot, report)``."""
    from ..dataplane.pilot import PilotConfig, PilotTestbed
    from ..netsim.engine import Simulator

    config = PilotConfig(
        wan_delay_ns=case.wan_delay_ns,
        wan_loss_rate=case.wan_loss_rate,
        flows=case.flows,
        trace=trace,
        trace_capacity=case.trace_capacity,
        sample_every_ns=case.sample_every_ns or None,
        **dict(case.extra),
    )
    pilot = PilotTestbed(sim=Simulator(seed=case.seed), config=config)
    pilot.send_split(case.messages, case.payload_size, case.interval_ns)
    report = pilot.run()
    label = f"seed{case.seed:06d}_msgs{case.messages}_flows{case.flows}"
    return label, pilot, report


def run_traced_pilot_case(case: TracedPilotCase) -> tuple[str, dict]:
    """Run one traced pilot and return its metrics *and* trace digest.

    The digest (sha256 over the canonical trace serialization) is the
    strongest determinism witness a shard can return: two runs that
    merely agree on summary counters can still have diverged internally,
    but identical digests pin every recorded span.
    """
    from ..obs import series_digest
    from ..trace import trace_digest

    label, pilot, report = _run_pilot_case(case, trace=True)
    metrics = {
        "messages_sent": report.messages_sent,
        "delivered": report.delivered,
        "unrecovered": report.unrecovered,
        "retransmissions": report.retransmissions,
        "trace_events": pilot.tracer.events_retained,
        "trace_digest": trace_digest(pilot.tracer.events()),
    }
    if pilot.sampler is not None:
        metrics["sample_emits"] = pilot.sampler.sample_emits
        metrics["series_digest"] = series_digest(pilot.sampler)
    return label, metrics


def sampled_pilot_series_shard(case: TracedPilotCase) -> tuple[str, list[dict]]:
    """Shard worker returning one case's full sample series.

    The records feed :func:`merge_series`; the merged set (and its
    ``repro.obs.series_digest``) must be identical for every job count.
    """
    from ..obs import series_records

    if not case.sample_every_ns:
        raise ShardError("sampled_pilot_series_shard needs sample_every_ns > 0")
    label, pilot, _report = _run_pilot_case(case, trace=bool(case.trace_capacity))
    return label, series_records(pilot.sampler)
