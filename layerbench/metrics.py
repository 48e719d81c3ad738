"""Names, units and directions of every metric the benchmark emits.

``BENCHMARK.json`` at the repo root is what the driver reads; this
module is what the worker emits from. ``tests/test_metrics.py`` keeps
the two identical, so a metric cannot be added in one place only.

Every ``sim_*`` metric (and ``events_per_msg``) is *simulated*: it is a
property of the modelled network and repeats exactly for a seed. Every
other metric is *host*: what the simulator cost on this machine.
"""

from __future__ import annotations

from .fold import LAYERS

#: (name, unit, better, bound). ``bound`` is the share of the parent's
#: median by which the metric may worsen before it counts as a
#: regression; the exact metrics get the tightest one their spread
#: across seeds allows (see README "Bounds").
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("run_wall_s", "s", "lower", 0.25),
    ("msgs_per_s", "msg/s", "higher", 0.25),
    ("events_per_s", "events/s", "higher", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.10),
    ("events_per_msg", "count", "lower", 0.02),
    ("sim_goodput_gbps", "Gb/s", "higher", 0.05),
    ("sim_latency_p50_us", "us", "lower", 0.05),
    ("sim_latency_tail_us", "us", "lower", 0.05),
)

#: Simulated metrics: identical for a seed on any machine, so two runs
#: of the same code must agree on them exactly.
EXACT = frozenset(
    {"events_per_msg", "sim_goodput_gbps", "sim_latency_p50_us", "sim_latency_tail_us"}
)

#: ``setup_s`` is tens of milliseconds on the pilot: a relative bound
#: alone would flag scheduler jitter, so ``compare`` also lets it move
#: by this many seconds.
SETUP_FLOOR_S = 0.020

#: Per-layer fold: three metrics for each of the 18 layers.
LAYER_FIELDS = (
    ("self_us_per_msg", "us/msg", "lower"),
    ("calls_per_msg", "1/msg", "lower"),
    ("self_share", "ratio", "lower"),
)

#: Counters read from public stats objects after the untraced rep.
COUNTERS = (
    ("netsim.engine.events", "count", "lower"),
    ("netsim.link.delivered_per_msg", "1/msg", "lower"),
    ("netsim.link.lost", "count", "lower"),
    ("netsim.queues.drops", "count", "lower"),
    ("netsim.queues.ce_marked", "count", "lower"),
    ("netsim.queues.peak_bytes", "bytes", "lower"),
    ("dataplane.element.mmt_processed_per_msg", "1/msg", "lower"),
    ("dataplane.element.mirrored_to_buffer", "count", "lower"),
    ("dataplane.element.naks_served", "count", "lower"),
    ("core.endpoint.naks", "count", "lower"),
    ("core.endpoint.retx_per_kmsg", "1/kmsg", "lower"),
    ("core.endpoint.duplicates", "count", "lower"),
    ("core.endpoint.unrecovered", "count", "lower"),
    ("core.retransmit.occupancy", "ratio", "lower"),
    ("baselines.tcp_retransmits", "count", "lower"),
    ("baselines.tcp_ecn_reductions", "count", "lower"),
    ("baselines.fct_p95_us", "us", "lower"),
    ("fleet.table_updates", "count", "lower"),
    ("fleet.node_jain", "ratio", "higher"),
    ("trace.events_per_msg", "1/msg", "lower"),
    ("obs.samples", "count", "lower"),
    ("telemetry.int_postcards", "count", "lower"),
)

#: Host phases timed by the benchmark around the public calls
#: (untraced rep), and the profiler's slow-down on ``run``.
PHASES = (
    ("phase.import_s", "s", "lower"),
    ("phase.build_s", "s", "lower"),
    ("phase.inject_s", "s", "lower"),
    ("phase.run_s", "s", "lower"),
    ("phase.report_s", "s", "lower"),
    ("trace_overhead_x", "x", "lower"),
)


def per_layer() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in print order."""
    fold = [
        (f"{layer}.{field}", unit, better)
        for layer in LAYERS
        for field, unit, better in LAYER_FIELDS
    ]
    return [*fold, *COUNTERS, *PHASES]


def counter_values(counters: dict, messages: int, events: int) -> dict[str, float]:
    """Map a rep's raw counters (see ``workloads``) onto ``COUNTERS``."""
    get = counters.get
    return {
        "netsim.engine.events": events,
        "netsim.link.delivered_per_msg": get("link_delivered", 0) / messages,
        "netsim.link.lost": get("link_lost", 0),
        "netsim.queues.drops": get("queue_drops", 0),
        "netsim.queues.ce_marked": get("queue_ce_marked", 0),
        "netsim.queues.peak_bytes": get("queue_peak_bytes", 0),
        "dataplane.element.mmt_processed_per_msg": get("mmt_processed", 0) / messages,
        "dataplane.element.mirrored_to_buffer": get("mirrored_to_buffer", 0),
        "dataplane.element.naks_served": get("naks_served", 0),
        "core.endpoint.naks": get("naks", 0),
        "core.endpoint.retx_per_kmsg": 1000.0 * get("retransmissions", 0) / messages,
        "core.endpoint.duplicates": get("duplicates", 0),
        "core.endpoint.unrecovered": get("unrecovered", 0),
        "core.retransmit.occupancy": get("buffer_occupancy", 0.0),
        "baselines.tcp_retransmits": get("tcp_retransmits", 0),
        "baselines.tcp_ecn_reductions": get("tcp_ecn_reductions", 0),
        "baselines.fct_p95_us": get("tcp_fct_p95_ns", 0.0) / 1e3,
        "fleet.table_updates": get("table_updates", 0),
        "fleet.node_jain": get("node_jain", 0.0),
        "trace.events_per_msg": get("trace_events", 0) / messages,
        "obs.samples": get("obs_samples", 0),
        "telemetry.int_postcards": get("int_postcards", 0),
    }
