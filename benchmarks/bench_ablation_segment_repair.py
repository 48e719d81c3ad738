"""A10 — §5.3: network-driven (X.25-style) vs receiver-driven recovery.

Loss happens on an upstream segment; the consumer sits ever farther
downstream. With receiver-driven NAKs, recovery latency grows with the
consumer's distance (its NAK must cross the whole downstream path).
With segment-local repair at the element bounding the lossy segment,
recovery latency is pinned to that segment's round trip — however far
the consumer is. The crossover the hop-by-hop design buys.
"""

from __future__ import annotations

from repro.analysis import ResultTable, format_duration, percentile
from repro.core import MmtStack, ReceiverConfig, make_experiment_id
from repro.core.modes import pilot_registry
from repro.dataplane import (
    AgeUpdateProgram,
    BufferTapProgram,
    ModeTransitionProgram,
    ProgrammableElement,
    SegmentRecoveryProgram,
    TransitionRule,
)
from repro.netsim import Simulator, Topology, units
from repro.netsim.units import MILLISECOND

EXP = 19
EXP_ID = make_experiment_id(EXP)
MESSAGES = 1200
MID_LOSS = 0.03
TAIL_DELAYS_MS = [5, 25, 50]


def run(tail_delay_ms: int, repair: bool):
    sim = Simulator(seed=90 + tail_delay_ms)
    topo = Topology(sim)
    src = topo.add_host("src", ip="10.0.0.2")
    dst = topo.add_host("dst", ip="10.0.9.2")
    e1 = ProgrammableElement(sim, "e1", mac=topo.allocate_mac(), ip="10.0.1.1")
    e2 = ProgrammableElement(sim, "e2", mac=topo.allocate_mac(), ip="10.0.2.1")
    topo.add(e1)
    topo.add(e2)
    topo.connect(src, e1, units.gbps(10), 1 * MILLISECOND)
    topo.connect(e1, e2, units.gbps(10), 5 * MILLISECOND, loss_rate=MID_LOSS)
    topo.connect(e2, dst, units.gbps(10), tail_delay_ms * MILLISECOND)
    topo.install_routes()

    registry = pilot_registry()
    ModeTransitionProgram(registry, [
        TransitionRule(from_config_id=0, to_mode="age-recover",
                       buffer_addr=e1.ip, age_budget_ns=units.seconds(1)),
    ]).install(e1)
    e1.attach_buffer(512 * 1024 * 1024)
    BufferTapProgram(buffer_addr=e1.ip).install(e1)
    AgeUpdateProgram().install(e1)
    e2.attach_buffer(512 * 1024 * 1024)
    e2.nak_fallback_addr = e1.ip
    BufferTapProgram(buffer_addr=e2.ip).install(e2)
    recovery = None
    if repair:
        recovery = SegmentRecoveryProgram(
            upstream_buffer_addr=e1.ip,
            config=ReceiverConfig(
                reorder_wait_ns=units.microseconds(200),
                # First retry after initial_rtt x RTT_SAFETY = 12 ms, just
                # over the 10 ms e2<->e1 round trip.
                initial_rtt_ns=6 * MILLISECOND,
            ),
        )
        recovery.install(e2)

    src_stack = MmtStack(src, registry)
    dst_stack = MmtStack(dst, registry)
    receiver = dst_stack.bind_receiver(
        EXP,
        config=ReceiverConfig(
            initial_rtt_ns=2 * (tail_delay_ms + 6) * MILLISECOND,
            # Patient destination when the network repairs for it.
            reorder_wait_ns=(30 * MILLISECOND if repair else 50_000),
        ),
    )
    sender = src_stack.create_sender(experiment_id=EXP_ID, mode="identify", dst_ip=dst.ip)
    for i in range(MESSAGES):
        sim.schedule(i * 20_000, sender.send, 1500)
    sim.run()
    receiver.request_missing(EXP_ID, MESSAGES)
    sim.run()
    assert receiver.stats.unrecovered == 0
    base = (6 + tail_delay_ms) * MILLISECOND  # loss-free one-way latency
    latencies = [lat for _t, lat in receiver.delivery_log]
    worst = percentile(latencies, 1.0)
    return worst - base, receiver, recovery


def run_matrix():
    rows = []
    for tail in TAIL_DELAYS_MS:
        excess_rx, _r1, _ = run(tail, repair=False)
        excess_net, _r2, recovery = run(tail, repair=True)
        rows.append((tail, excess_rx, excess_net, recovery.stats.repairs_forwarded))
    return rows


def test_segment_repair_ablation(once):
    rows = once(run_matrix)
    table = ResultTable(
        "A10 — worst-case recovery excess: receiver-driven vs segment-local "
        f"(loss on the 5 ms mid-segment, {MID_LOSS:.0%})",
        ["Consumer distance", "Receiver-driven", "Segment-local", "Repairs in-network"],
    )
    for tail, excess_rx, excess_net, repairs in rows:
        table.add_row(
            f"{tail} ms",
            format_duration(excess_rx),
            format_duration(excess_net),
            repairs,
        )
        assert repairs > 0
    table.show()
    # Receiver-driven excess grows with consumer distance...
    rx = [row[1] for row in rows]
    assert rx[0] < rx[1] < rx[2]
    # ...while segment-local repair does not grow with it (it is pinned
    # near the lossy segment's RTT plus retry noise, not the path RTT).
    net = [row[2] for row in rows]
    assert max(net) < 3 * (2 * 5 * MILLISECOND) + 5 * MILLISECOND
    assert net[2] <= net[0] + 5 * MILLISECOND
    # At every distance the network-driven scheme wins outright.
    for (_tail, excess_rx, excess_net, _r) in rows:
        assert excess_net < excess_rx
