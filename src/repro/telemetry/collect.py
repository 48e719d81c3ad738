"""The metric catalogue: every counter, gauge and histogram, declared once.

The simulator, ports, queues, endpoints and dataplane elements already
keep cheap plain-int counters on their hot paths. One function per
component kind declares that component's metrics as rows ``(kind, name,
labels, read)``, where ``read`` is a zero-argument reader of the live
value. Both consumers read the same rows, so a metric has one name and
one label set wherever it is observed:

- the end-of-run scrape (``IngestTestbed.collect_telemetry``) writes
  every row of a testbed into its :class:`~repro.telemetry.registry
  .MetricsRegistry` — counters with ``set_total`` (absolute values, so
  a repeated scrape is idempotent), gauges with ``set``, histograms by
  observing each sample the reader returns (once per scrape, so scrape
  at end of run);
- the on-clock sampler watches, once at build, the gauge rows a testbed
  names in its sampled set.

Rows describe a component as it is when they are built: the per-flow
maps are read then (their readers return that reading), and link
utilization needs the run's elapsed time. Everything is duck-typed on
the stats attributes, so the catalogue depends on no simulation module.
"""

from __future__ import annotations

from dataclasses import fields
from functools import partial
from typing import Callable

#: ``(kind, name, labels, read)``: kind is counter, gauge or histogram.
Row = tuple[str, str, dict[str, str], Callable[[], object]]

_SECOND_NS = 1_000_000_000


def _stats_rows(prefix: str, stats, labels: dict[str, str]) -> list[Row]:
    """One counter per int field of a stats dataclass."""
    rows = []
    for field in fields(stats):
        value = getattr(stats, field.name)
        if isinstance(value, int) and not isinstance(value, bool):
            rows.append(("counter", f"{prefix}_{field.name}", labels,
                         partial(getattr, stats, field.name)))
    return rows


def engine_rows(sim) -> list[Row]:
    """Engine health: event throughput, the virtual clock, the event
    heap, and the spans its flight recorder retains (when traced)."""
    rows: list[Row] = [
        ("counter", "sim_events_processed", {}, lambda: sim.events_processed),
        ("gauge", "sim_now_ns", {}, lambda: sim.now),
        ("gauge", "sim_pending_events", {}, sim.pending_events),
    ]
    if sim.tracer is not None:
        rows.append(("gauge", "trace_events_retained", {},
                     lambda: sim.tracer.events_retained))
    return rows


def port_rows(port) -> list[Row]:
    """Port tx/rx/drops plus its egress queue: depth, high-water mark,
    drops, and AQM/ECN counters when the discipline keeps them
    (``RedQueue`` CE marks and early drops)."""
    labels = {"node": port.node.name, "port": port.name}
    queue = port.queue
    rows = _stats_rows("port", port.stats, labels) + [
        ("gauge", "queue_bytes", labels, lambda: queue.bytes_queued),
        ("gauge", "queue_peak_bytes", labels, lambda: queue.peak_bytes),
        ("counter", "queue_dropped_total", labels, lambda: queue.dropped),
    ]
    for attr in ("ce_marked", "early_drops"):
        if getattr(queue, attr, None) is not None:
            rows.append(("counter", f"queue_{attr}_total", labels,
                         partial(getattr, queue, attr)))
    return rows


def link_rows(link, now_ns: int = 0) -> list[Row]:
    """Link delivery/loss counts, the rate in force, and — once ``now_ns``
    of run has elapsed — each direction's utilization."""
    labels = {"link": link.name}
    stats = link.stats
    rows: list[Row] = [
        ("counter", f"link_{attr}_total", labels, partial(getattr, stats, attr))
        for attr in ("delivered", "lost_random", "lost_corruption", "lost_down",
                     "lost_model", "rate_changes", "delay_changes")
    ]
    rows.append(("gauge", "link_current_rate_bps", labels, lambda: stats.current_rate_bps))
    if now_ns:
        for port in link.ends:
            # utilization% = bits sent / (rate × elapsed), integer math.
            rows.append(("gauge", "link_utilization_pct",
                         {"link": link.name, "direction": port.node.name},
                         lambda p=port: min(100, p.stats.tx_bytes * 8 * 100 * _SECOND_NS
                                            // (link.rate_bps * now_ns))))
    return rows


def receiver_rows(receiver, host: str) -> list[Row]:
    """Receiver-side transport counters, outstanding gaps, and the
    delivery latency histogram."""
    labels = {"host": host}
    return _stats_rows("mmt_rx", receiver.stats, labels) + [
        ("gauge", "mmt_rx_outstanding", labels, receiver.outstanding),
        ("histogram", "mmt_delivery_latency_ns", labels,
         lambda: [latency for _at, latency in receiver.delivery_log]),
    ]


def sender_rows(sender, host: str, flow: str | None = None) -> list[Row]:
    labels = {"host": host} if flow is None else {"host": host, "flow": flow}
    return _stats_rows("mmt_tx", sender.stats, labels)


def stack_rows(stack) -> list[Row]:
    """An MmtStack's demux counters, receivers, senders and host buffer."""
    host = stack.host.name
    labels = {"host": host}
    rows: list[Row] = [
        ("counter", "mmt_rx_unknown_experiment", labels, lambda: stack.rx_unknown_experiment),
        ("counter", "mmt_rx_malformed", labels, lambda: stack.rx_malformed),
        ("counter", "mmt_deadline_miss_reports", labels, lambda: len(stack.deadline_misses)),
    ]
    for receiver in stack.receivers.values():
        rows += receiver_rows(receiver, host)
    # A host with several senders (one per flow) gets per-flow series;
    # single-sender stacks keep the unlabelled legacy series, and two
    # same-host senders never collide on one monotonic counter.
    multi = len(stack.senders) > 1
    for sender in stack.senders:
        rows += sender_rows(sender, host, sender.flow if multi else None)
    if stack.buffer is not None:
        rows += buffer_rows(stack.buffer, host)
    return rows


def buffer_rows(buffer, host: str) -> list[Row]:
    """Retransmission buffer hit/miss counters and occupancy."""
    labels = {"host": host}
    return _stats_rows("retx_buffer", buffer.stats, labels) + [
        ("gauge", "retx_buffer_bytes", labels, lambda: buffer.bytes_used),
        ("gauge", "retx_buffer_entries", labels, buffer.__len__),
    ]


def element_rows(element) -> list[Row]:
    """A programmable element: stats, per-table hit counts, its buffer."""
    name = element.name
    labels = {"element": name}
    rows = _stats_rows("element", element.stats, labels)
    rows.append(("counter", "element_nak_forwards_suppressed", labels,
                 lambda: element.responder.guard.suppressed))
    for table in element.pipeline.tables:
        table_labels = {"element": name, "table": table.name}
        rows += [
            ("counter", "table_lookups_total", table_labels, partial(getattr, table, "lookups")),
            ("counter", "table_default_hits_total", table_labels,
             partial(getattr, table, "default_hits")),
            ("counter", "table_entry_hits_total", table_labels,
             lambda t=table: sum(entry.hits for entry in t.entries)),
        ]
    if element.buffer is not None:
        rows += buffer_rows(element.buffer, name)
    return rows


def balancer_rows(balancer, element: str) -> list[Row]:
    """An EJ-FAT-style load balancer: per-backend state plus the
    table-health counters (epoch, redirects, retx rebinds).

    One ``fleet_node_*`` series per backend — fill level as reported by
    the sync loop, windows assigned, packets/bytes steered — so a
    scrape answers "is the farm balanced and who is absorbing repair
    traffic" without touching the balancer object.
    """
    rows: list[Row] = []
    for address, state in balancer.backends.items():
        labels = {"element": element, "backend": address}
        rows += [
            ("gauge", "fleet_node_fill_pct", labels, partial(getattr, state, "fill_pct")),
            ("gauge", "fleet_node_draining", labels, lambda s=state: int(s.draining)),
            ("gauge", "fleet_node_dead", labels, lambda s=state: int(s.dead)),
        ] + [
            ("counter", f"fleet_node_{attr}", labels, partial(getattr, state, attr))
            for attr in ("windows_assigned", "packets_steered", "bytes_steered")
        ]
    labels = {"element": element}
    return rows + [
        ("counter", f"balancer_{attr}", labels, partial(getattr, balancer, attr))
        for attr in ("epoch", "table_updates", "redirects", "retx_rebinds",
                     "follows_dead", "unsteerable")
    ]


def _flow_labels(key: tuple[int, int], **labels: str) -> dict[str, str]:
    experiment_id, flow_id = key
    return {"experiment": str(experiment_id), "flow": str(flow_id), **labels}


def receiver_flow_rows(receiver, host: str) -> list[Row]:
    """Per-``(experiment, flow)`` receiver counters and outstanding gaps
    (multi-flow runs; single-flow dashboards read :func:`receiver_rows`)."""
    return [
        ("gauge" if name == "outstanding" else "counter", f"mmt_rx_flow_{name}",
         _flow_labels(key, host=host), lambda v=value: v)
        for key, counters in receiver.flow_summary().items()
        for name, value in counters.items()
    ]


def element_flow_rows(element) -> list[Row]:
    """In-path per-flow ingress packets and bytes, e.g.
    :meth:`~repro.dataplane.tofino.TofinoSwitch.flow_counters`."""
    rows: list[Row] = []
    for key, (packets, nbytes) in element.flow_counters().items():
        labels = _flow_labels(key, element=element.name)
        rows += [
            ("counter", "element_flow_packets_total", labels, lambda v=packets: v),
            ("counter", "element_flow_bytes_total", labels, lambda v=nbytes: v),
        ]
    return rows


def buffer_flow_rows(nic) -> list[Row]:
    """Retransmission-buffer bytes each flow holds on a card, e.g.
    :meth:`~repro.dataplane.alveo.AlveoNic.hbm_flow_occupancy`."""
    return [
        ("gauge", "retx_buffer_flow_bytes", _flow_labels(key, host=nic.name), lambda v=nbytes: v)
        for key, nbytes in nic.hbm_flow_occupancy().items()
    ]


def nearest_buffer_rows(program, element: str, directory=None) -> list[Row]:
    """The fault path of nearest-buffer stamping: an element's re-stamps
    onto a live buffer (failovers) and stamps left on a dead one, plus
    the buffer directory's liveness marks when there is a directory —
    where a buffer failover is observable after the fact."""
    labels = {"element": element}
    rows: list[Row] = [
        ("counter", "nearest_buffer_failovers", labels, lambda: program.failovers),
        ("counter", "nearest_buffer_stale_stamps", labels, lambda: program.stale_stamps),
    ]
    if directory is not None:
        rows += [
            ("counter", "buffer_directory_marks_down", {}, lambda: directory.marks_down),
            ("counter", "buffer_directory_marks_up", {}, lambda: directory.marks_up),
            ("gauge", "buffer_directory_alive", {}, directory.alive_count),
        ]
    return rows


def controller_rows(controller) -> list[Row]:
    """A receiver farm's sync loop: syncs, liveness marks, redirected
    windows, and the fill skew across the live backends it reports."""
    stats = controller.stats
    backends = controller.balancer.backends

    def fill_skew() -> int:
        fills = [state.fill_pct for state in backends.values() if not state.dead]
        return (max(fills) - min(fills)) if fills else 0

    return [
        ("counter", f"fleet_controller_{attr}", {}, partial(getattr, stats, attr))
        for attr in ("syncs", "marks_down", "redirected_windows")
    ] + [("gauge", "fleet_fill_skew", {}, fill_skew)]
