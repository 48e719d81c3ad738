"""Scrape collectors: lift existing stats objects into the registry.

The simulator, ports, queues, endpoints, and dataplane elements all
keep cheap plain-int counters on their hot paths already. These
collectors read them into a :class:`~repro.telemetry.registry
.MetricsRegistry` so one snapshot covers the whole stack — the pull
half of the telemetry design (INT postcards are the push half).

Counters are written with ``set_total`` (absolute values), so scraping
the same component repeatedly is idempotent; histograms fed from sample
logs (delivery latencies) consume each sample once per scrape — call
those at end of run, which is what the harnesses do.

Everything is duck-typed on the stats attributes, so the collectors
depend on no simulation module and can scrape lookalike objects in
tests.
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields

from .registry import DEFAULT_LATENCY_BUCKETS_NS, MetricsRegistry

#: bits-per-second in one percent-nanosecond unit (see link utilization).
_SECOND_NS = 1_000_000_000


def _scrape_dataclass(registry: MetricsRegistry, prefix: str, stats, **labels) -> None:
    """One counter per int field of a stats dataclass."""
    for field in dataclass_fields(stats):
        value = getattr(stats, field.name)
        if isinstance(value, bool) or not isinstance(value, int):
            continue
        registry.counter(f"{prefix}_{field.name}", **labels).set_total(value)


def scrape_simulator(sim, registry: MetricsRegistry) -> None:
    """Engine health: event throughput and the virtual clock."""
    registry.counter("sim_events_processed").set_total(sim.events_processed)
    registry.gauge("sim_now_ns").set(sim.now)
    registry.gauge("sim_pending_events").set(sim.pending_events())


def scrape_queue(queue, registry: MetricsRegistry, **labels) -> None:
    """Queue depth/drops plus AQM/ECN counters when the discipline has
    them (``RedQueue`` CE marks and early drops)."""
    registry.gauge("queue_bytes", **labels).set(queue.bytes_queued)
    registry.gauge("queue_peak_bytes", **labels).set_max(queue.peak_bytes)
    registry.counter("queue_dropped_total", **labels).set_total(queue.dropped)
    ce_marked = getattr(queue, "ce_marked", None)
    if ce_marked is not None:
        registry.counter("queue_ce_marked_total", **labels).set_total(ce_marked)
    early_drops = getattr(queue, "early_drops", None)
    if early_drops is not None:
        registry.counter("queue_early_drops_total", **labels).set_total(
            early_drops
        )


def scrape_port(port, registry: MetricsRegistry, node: str | None = None) -> None:
    """Port tx/rx/drops plus egress-queue occupancy high-water mark."""
    labels = {"node": node or port.node.name, "port": port.name}
    _scrape_dataclass(registry, "port", port.stats, **labels)
    scrape_queue(port.queue, registry, **labels)


def scrape_link(link, registry: MetricsRegistry, now_ns: int | None = None) -> None:
    """Link delivery/loss counts and per-direction utilization."""
    labels = {"link": link.name}
    registry.counter("link_delivered_total", **labels).set_total(link.stats.delivered)
    registry.counter("link_lost_random_total", **labels).set_total(link.stats.lost_random)
    registry.counter("link_lost_corruption_total", **labels).set_total(
        link.stats.lost_corruption
    )
    registry.counter("link_lost_down_total", **labels).set_total(link.stats.lost_down)
    registry.counter("link_lost_model_total", **labels).set_total(link.stats.lost_model)
    registry.counter("link_rate_changes_total", **labels).set_total(
        link.stats.rate_changes
    )
    registry.counter("link_delay_changes_total", **labels).set_total(
        link.stats.delay_changes
    )
    registry.gauge("link_current_rate_bps", **labels).set(link.stats.current_rate_bps)
    if now_ns:
        for port in link.ends:
            # utilization% = bits sent / (rate × elapsed), integer math.
            pct = (port.stats.tx_bytes * 8 * 100 * _SECOND_NS) // (
                link.rate_bps * now_ns
            )
            registry.gauge(
                "link_utilization_pct", link=link.name, direction=port.node.name
            ).set(min(pct, 100))


def scrape_topology(topology, registry: MetricsRegistry, now_ns: int | None = None) -> None:
    """Every node's ports and every link of a built topology."""
    for node in topology.nodes.values():
        for port in node.ports.values():
            scrape_port(port, registry, node=node.name)
    for link in topology.links:
        scrape_link(link, registry, now_ns=now_ns)


def scrape_receiver(receiver, registry: MetricsRegistry, host: str | None = None) -> None:
    """Receiver-side transport counters plus the delivery latency histogram."""
    labels = {"host": host} if host else {}
    _scrape_dataclass(registry, "mmt_rx", receiver.stats, **labels)
    registry.gauge("mmt_rx_outstanding", **labels).set(receiver.outstanding())
    histogram = registry.histogram(
        "mmt_delivery_latency_ns", buckets=DEFAULT_LATENCY_BUCKETS_NS, **labels
    )
    histogram.observe_many(latency for _at, latency in receiver.delivery_log)


def scrape_sender(
    sender,
    registry: MetricsRegistry,
    host: str | None = None,
    flow: str | None = None,
) -> None:
    labels = {"host": host} if host else {}
    if flow:
        labels["flow"] = flow
    _scrape_dataclass(registry, "mmt_tx", sender.stats, **labels)


def scrape_stack(stack, registry: MetricsRegistry) -> None:
    """An MmtStack's senders, receivers, and demux/buffer counters."""
    host = stack.host.name
    registry.counter("mmt_rx_unknown_experiment", host=host).set_total(
        stack.rx_unknown_experiment
    )
    registry.counter("mmt_rx_malformed", host=host).set_total(stack.rx_malformed)
    registry.counter("mmt_deadline_miss_reports", host=host).set_total(
        len(stack.deadline_misses)
    )
    for receiver in stack.receivers.values():
        scrape_receiver(receiver, registry, host=host)
    # A host with several senders (one per flow) gets per-flow series;
    # single-sender stacks keep the unlabelled legacy series, and two
    # same-host senders never collide on one monotonic counter.
    multi = len(stack.senders) > 1
    for sender in stack.senders:
        scrape_sender(
            sender, registry, host=host, flow=sender.flow if multi else None
        )
    if stack.buffer is not None:
        scrape_buffer(stack.buffer, registry, host=host)


def scrape_buffer(buffer, registry: MetricsRegistry, host: str | None = None) -> None:
    """Retransmission buffer occupancy and hit/miss counters."""
    labels = {"host": host} if host else {"host": buffer.address}
    _scrape_dataclass(registry, "retx_buffer", buffer.stats, **labels)
    registry.gauge("retx_buffer_bytes", **labels).set(buffer.bytes_used)


def scrape_receiver_flows(receiver, registry: MetricsRegistry, host: str | None = None) -> None:
    """Per-flow receiver counters (multi-flow runs).

    One labelled series per ``(experiment, flow)`` the receiver has
    state for; single-flow receivers expose only the aggregate series
    from :func:`scrape_receiver`, so legacy dashboards are unchanged.
    """
    for (experiment_id, flow_id), counters in receiver.flow_summary().items():
        labels = {"experiment": str(experiment_id), "flow": str(flow_id)}
        if host:
            labels["host"] = host
        for name, value in counters.items():
            if name == "outstanding":
                registry.gauge("mmt_rx_flow_outstanding", **labels).set(value)
            else:
                registry.counter(f"mmt_rx_flow_{name}", **labels).set_total(value)


def scrape_flow_counters(counters, registry: MetricsRegistry, element: str | None = None) -> None:
    """In-path per-flow ingress counters (``(exp, flow) → (pkts, bytes)``),
    e.g. :meth:`~repro.dataplane.tofino.TofinoSwitch.flow_counters`."""
    for (experiment_id, flow_id), (packets, nbytes) in counters.items():
        labels = {"experiment": str(experiment_id), "flow": str(flow_id)}
        if element:
            labels["element"] = element
        registry.counter("element_flow_packets_total", **labels).set_total(packets)
        registry.counter("element_flow_bytes_total", **labels).set_total(nbytes)


def scrape_flow_residency(residency, registry: MetricsRegistry, host: str | None = None) -> None:
    """Retransmission-buffer bytes held per ``(experiment, flow)``,
    e.g. :meth:`~repro.dataplane.alveo.AlveoNic.hbm_flow_occupancy`."""
    for (experiment_id, flow_id), nbytes in residency.items():
        labels = {"experiment": str(experiment_id), "flow": str(flow_id)}
        if host:
            labels["host"] = host
        registry.gauge("retx_buffer_flow_bytes", **labels).set(nbytes)


def scrape_balancer(balancer, registry: MetricsRegistry, element: str | None = None) -> None:
    """An EJ-FAT-style load balancer: per-backend state plus the
    table-health counters (epoch, redirects, retx rebinds).

    One ``fleet_node_*`` series per backend — fill level as reported by
    the sync loop, windows assigned, packets/bytes steered — so a
    scrape answers "is the farm balanced and who is absorbing repair
    traffic" without touching the balancer object.
    """
    base = {"element": element} if element else {}
    for address, state in balancer.backends.items():
        labels = dict(base, backend=address)
        registry.gauge("fleet_node_fill_pct", **labels).set(state.fill_pct)
        registry.gauge("fleet_node_draining", **labels).set(int(state.draining))
        registry.gauge("fleet_node_dead", **labels).set(int(state.dead))
        registry.counter("fleet_node_windows_assigned", **labels).set_total(
            state.windows_assigned
        )
        registry.counter("fleet_node_packets_steered", **labels).set_total(
            state.packets_steered
        )
        registry.counter("fleet_node_bytes_steered", **labels).set_total(
            state.bytes_steered
        )
    registry.counter("balancer_epoch", **base).set_total(balancer.epoch)
    registry.counter("balancer_table_updates", **base).set_total(balancer.table_updates)
    registry.counter("balancer_redirects", **base).set_total(balancer.redirects)
    registry.counter("balancer_retx_rebinds", **base).set_total(balancer.retx_rebinds)
    registry.counter("balancer_follows_dead", **base).set_total(balancer.follows_dead)
    registry.counter("balancer_unsteerable", **base).set_total(balancer.unsteerable)


def scrape_element(element, registry: MetricsRegistry) -> None:
    """A programmable element: stats, per-table hit counts, its buffer."""
    name = element.name
    _scrape_dataclass(registry, "element", element.stats, element=name)
    registry.counter("element_nak_forwards_suppressed", element=name).set_total(
        element.responder.guard.suppressed
    )
    for table in element.pipeline.tables:
        labels = {"element": name, "table": table.name}
        registry.counter("table_lookups_total", **labels).set_total(table.lookups)
        registry.counter("table_default_hits_total", **labels).set_total(
            table.default_hits
        )
        registry.counter("table_entry_hits_total", **labels).set_total(
            sum(entry.hits for entry in table.entries)
        )
    if element.buffer is not None:
        scrape_buffer(element.buffer, registry, host=name)
