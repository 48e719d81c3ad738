"""A1 — §5.3 claim: hop-by-hop recovery beats end-to-end.

A four-segment path with loss on the last hop. The retransmission
buffer is placed at increasing distance from the receiver (source,
25%, 50%, 75% of the path); recovery latency for a lost packet is the
NAK round trip to that buffer, so the measured *excess* latency of
recovered messages should fall roughly linearly as the buffer moves
downstream — the paper's argument for using "a more 'recent' (lower
RTT) retransmission buffer" (§1).
"""

from __future__ import annotations

from repro.analysis import ResultTable, format_duration, percentile
from repro.core import MmtStack, ReceiverConfig, make_experiment_id, pilot_registry
from repro.dataplane import (
    AgeUpdateProgram,
    BufferTapProgram,
    ModeTransitionProgram,
    ProgrammableElement,
    TransitionRule,
)
from repro.netsim import Simulator, Topology, units
from repro.netsim.units import MILLISECOND

EXP = 12
EXP_ID = make_experiment_id(EXP)
SEGMENT_DELAY = 10 * MILLISECOND
HOPS = 4
MESSAGES = 1500
LOSS = 0.02


def run_with_buffer_at(position: int):
    """Build src - e1 - e2 - e3 - dst; buffer hosted at element
    ``position`` (1..3) or at the source (0)."""
    sim = Simulator(seed=100 + position)
    topo = Topology(sim)
    src = topo.add_host("src", ip="10.0.0.2")
    dst = topo.add_host("dst", ip="10.0.9.2")
    elements = []
    for i in range(1, HOPS):
        element = ProgrammableElement(
            sim, f"e{i}", mac=topo.allocate_mac(), ip=f"10.0.{i}.1"
        )
        topo.add(element)
        elements.append(element)
    chain = [src, *elements, dst]
    for i, (a, b) in enumerate(zip(chain, chain[1:])):
        loss = LOSS if i == len(chain) - 2 else 0.0  # last hop lossy
        topo.connect(a, b, units.gbps(100), SEGMENT_DELAY, loss_rate=loss)
    topo.install_routes()

    src_stack = MmtStack(src)
    dst_stack = MmtStack(dst)
    delivered = []
    receiver = dst_stack.bind_receiver(
        EXP,
        on_message=lambda p, h: delivered.append(
            (sim.now - p.meta["sent_at"], h.msg_type.name)
        ),
        config=ReceiverConfig(initial_rtt_ns=4 * SEGMENT_DELAY * HOPS),
    )

    if position == 0:
        src_stack.attach_buffer(512 * 1024 * 1024)
        sender = src_stack.create_sender(
            experiment_id=EXP_ID, mode="age-recover", dst_ip=dst.ip,
            age_budget_ns=units.seconds(5), buffer_local=True,
        )
    else:
        sender = src_stack.create_sender(
            experiment_id=EXP_ID, mode="identify", dst_ip=dst.ip
        )
        host_element = elements[position - 1]
        host_element.attach_buffer(512 * 1024 * 1024)
        ModeTransitionProgram(
            pilot_registry(),
            [TransitionRule(from_config_id=0, to_mode="age-recover",
                            buffer_addr=host_element.ip,
                            age_budget_ns=units.seconds(5))],
        ).install(host_element)
        BufferTapProgram(buffer_addr=host_element.ip).install(host_element)
        AgeUpdateProgram().install(host_element)

    for _ in range(MESSAGES):
        sender.send(4000)
    sender.finish()
    sim.run()
    receiver.request_missing(EXP_ID, MESSAGES if position == 0 else receiver.requester.flow(EXP_ID).highest_seen + 1)
    sim.run()
    return delivered, receiver


def run_all_positions():
    return {pos: run_with_buffer_at(pos) for pos in range(HOPS)}


def test_buffer_placement_ablation(once):
    results = once(run_all_positions)
    first_chance = (HOPS * SEGMENT_DELAY)  # one-way, loss-free latency
    table = ResultTable(
        "A1 — recovery latency vs buffer placement (loss on last hop)",
        ["Buffer at", "Hops from dst", "Recovered", "p50 all",
         "p99 all", "Recovered p50 excess"],
    )
    excesses = {}
    for position, (delivered, receiver) in results.items():
        latencies = [lat for lat, _kind in delivered]
        recovered = [lat for lat, kind in delivered if kind == "RETX_DATA"]
        assert recovered, f"position {position}: no recoveries observed"
        excess = percentile(recovered, 0.5) - first_chance
        excesses[position] = excess
        hops_from_dst = HOPS - position
        label = "source" if position == 0 else f"e{position}"
        table.add_row(
            label,
            hops_from_dst,
            len(recovered),
            format_duration(percentile(latencies, 0.5)),
            format_duration(percentile(latencies, 0.99)),
            format_duration(excess),
        )
    table.show()
    # Monotone: the closer the buffer, the cheaper the recovery; the
    # end-to-end (source) case costs about a full-path NAK round trip.
    assert excesses[3] < excesses[2] < excesses[1] < excesses[0]
    # Rough linearity: source recovery ~ 4 segments of NAK RTT vs 1.
    assert excesses[0] > 2.5 * excesses[3]
