#!/usr/bin/env python3
"""Vera Rubin's night: bulk capture plus millisecond-scale alerts.

Two concurrent flows from the telescope (§2.1): the steady nightly
capture (30 TB over the night — scaled here) and the alert
distribution stream that "bursts to 5.4 Gbps" and must reach
researchers in milliseconds. Alerts travel with a delivery deadline
and are duplicated in-network to two subscriber sites; the bulk
capture rides the same links in a lax-deadline mode. A deadline-aware
bottleneck queue keeps alerts timely even while the capture saturates
the uplink.

Run:  python examples/rubin_nightly.py
"""

from repro.analysis import LatencySummary, format_duration, format_rate
from repro.core import (
    AckScheme,
    Feature,
    MmtStack,
    Mode,
    extended_registry,
    make_experiment_id,
)
from repro.daq import DaqStreamSource, VERA_RUBIN, rubin_alert_stream
from repro.dataplane import (
    AgeUpdateProgram,
    DuplicationProgram,
    ModeTransitionProgram,
    TofinoSwitch,
    TransitionRule,
)
from repro.netsim import DeadlineAwareQueue, Simulator, Topology, units
from repro.netsim.units import MILLISECOND, SECOND

ALERT_EXP = 51
BULK_EXP = 52
ALERT_DEADLINE = 30 * MILLISECOND
RUN_NS = 30 * SECOND


def main() -> None:
    sim = Simulator(seed=3)
    topo = Topology(sim)
    summit = topo.add_host("summit", ip="10.1.0.2")        # Cerro Pachón
    archive = topo.add_host("archive", ip="10.2.0.2")      # US archive
    sub_a = topo.add_host("broker-a", ip="10.3.0.2")       # alert subscribers
    sub_b = topo.add_host("broker-b", ip="10.4.0.2")
    element = TofinoSwitch(sim, "longhaul", mac=topo.allocate_mac(), ip="10.9.0.1")
    topo.add(element)

    def deadline_queue():
        return DeadlineAwareQueue(
            4_000_000,
            deadline_of=lambda p: (
                h.deadline_ns
                if (h := p.mmt) is not None and h.features & Feature.TIMELINESS
                else None
            ),
            now=lambda: sim.now,
        )

    # Chile -> US long-haul: ~75 ms one way, 40 Gb/s, deadline-aware AQM.
    topo.connect(summit, element, units.gbps(40), units.milliseconds(1),
                 queue_factory=deadline_queue)
    topo.connect(element, archive, units.gbps(40), units.milliseconds(75),
                 queue_factory=deadline_queue)
    topo.connect(element, sub_a, units.gbps(10), units.milliseconds(20))
    topo.connect(element, sub_b, units.gbps(10), units.milliseconds(40))
    topo.install_routes()

    # The protocol is extensible (Req 9): applications can register
    # their own feature combinations. Alerts leave the summit in
    # "deliver-check" (deadline-stamped); the long-haul element lifts
    # them into this custom mode, adding sequencing, a recovery buffer,
    # age tracking, and in-network duplication while the deadline rides
    # along untouched.
    registry = extended_registry()
    alert_fanout = registry.register(Mode(
        config_id=7,
        name="alert-fanout",
        features=(Feature.SEQUENCED | Feature.RETRANSMISSION | Feature.TIMELINESS
                  | Feature.AGE_TRACKING | Feature.DUPLICATION),
        ack_scheme=AckScheme.NAK_ONLY,
        description="Deadline-carrying alert stream, duplicated in-network.",
    ))
    ModeTransitionProgram(registry, [
        TransitionRule(from_config_id=registry.by_name("deliver-check").config_id,
                       to_mode="alert-fanout",
                       ingress_port="to_summit",
                       buffer_addr=element.ip, age_budget_ns=ALERT_DEADLINE,
                       dup_group=1, dup_copies=1),
    ]).install(element)
    DuplicationProgram({1: [sub_a.ip, sub_b.ip]}).install(element)
    AgeUpdateProgram().install(element)
    element.attach_buffer(128 * 1024 * 1024)

    summit_stack = MmtStack(summit, registry)
    archive_stack = MmtStack(archive, registry)
    stacks = {sub_a.name: MmtStack(sub_a, registry), sub_b.name: MmtStack(sub_b, registry)}

    # Alerts: deadline-stamped at the source; duplicated at the element.
    alert_sender = summit_stack.create_sender(
        experiment_id=make_experiment_id(ALERT_EXP), mode="deliver-check",
        dst_ip=archive.ip, age_budget_ns=SECOND,
        deadline_offset_ns=ALERT_DEADLINE + 80 * MILLISECOND,
        notify_addr=summit.ip, buffer_local=False,
    )
    # Bulk capture: identification-only elephants.
    bulk_sender = summit_stack.create_sender(
        experiment_id=make_experiment_id(BULK_EXP), mode="identify",
        dst_ip=archive.ip,
    )

    received = {name: [] for name in ("archive", sub_a.name, sub_b.name)}
    archive_rx_alerts = archive_stack.bind_receiver(
        ALERT_EXP, on_message=lambda p, h: received["archive"].append(sim.now - p.meta["sent_at"]))
    archive_stack.bind_receiver(BULK_EXP)
    for name, stack in stacks.items():
        stack.bind_receiver(
            ALERT_EXP,
            on_message=lambda p, h, n=name: received[n].append(sim.now - p.meta["sent_at"]),
        )

    alerts = DaqStreamSource(
        sim, rubin_alert_stream(exposure_cadence_s=5.0),
        lambda size, payload, kind: alert_sender.send(size),
        duration_ns=RUN_NS, rng_name="alerts",
    )
    # The nightly capture, scaled so the example runs in seconds of
    # wall time while keeping its elephant/alert ratio.
    bulk = DaqStreamSource(
        sim, VERA_RUBIN.workload(scale=0.0005),
        lambda size, payload, kind: bulk_sender.send(size),
        duration_ns=RUN_NS, rng_name="bulk",
    )
    alerts.start()
    bulk.start()
    sim.run()

    print("=== A Rubin night (30 s, scaled) ===")
    print(f"bulk capture moved  : {bulk.bytes_emitted / 1e9:.1f} GB "
          f"({format_rate(bulk.bytes_emitted * 8 / (RUN_NS / 1e9))})")
    print(f"alert bursts emitted: {alerts.messages_emitted} messages")
    for name, samples in received.items():
        if not samples:
            continue
        summary = LatencySummary.of(samples)
        print(f"  {name:9s}: {len(samples):4d} alerts, "
              f"p50 {format_duration(summary.p50_ns)}, "
              f"p99 {format_duration(summary.p99_ns)}")
    print(f"deadline misses at archive: {archive_rx_alerts.stats.deadline_misses}")
    assert len(received[sub_a.name]) == alerts.messages_emitted
    assert len(received[sub_b.name]) == alerts.messages_emitted


if __name__ == "__main__":
    main()
