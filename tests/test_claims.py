"""The paper's claims, one test per DESIGN §4 row.

Each test runs its row's experiment through the public API at a size
tier-1 can afford and asserts the row's shape as a predicate over
``SEEDS``: a median, or a bound every seed meets. A row with no
randomness in it runs once. DESIGN §4 names each row's gate; F4, A1 and
A11 are CI benches, T1 is ``tests/daq/test_experiments.py``.
"""

from __future__ import annotations

import functools
from statistics import median

from repro.analysis import percentile
from repro.baselines import TcpStack, tuned_100g
from repro.controlplane import (
    Capability,
    FlowIntent,
    MapSpeaker,
    ResourceDescriptor,
    ResourceMap,
    converge,
    install_plan,
    plan_flow,
)
from repro.core import (
    Feature,
    MmtHeader,
    MmtStack,
    ReceiverConfig,
    TransitionContext,
    extended_registry,
    make_experiment_id,
    pilot_registry,
    transition,
)
from repro.daq import SUPERNOVA_LEAD_TIME_MIN_NS
from repro.dataplane import (
    AgeUpdateProgram,
    BackpressureProgram,
    BufferTapProgram,
    ModeTransitionProgram,
    ProgrammableElement,
    SegmentRecoveryProgram,
    TransitionRule,
)
from repro.integration import SupernovaConfig, compare
from repro.netsim import DeadlineAwareQueue, DropTailQueue, Simulator, Topology, units
from repro.netsim.units import MILLISECOND, SECOND
from repro.wan import MultimodalScenario, ScenarioConfig, TodayScenario

SEEDS = range(1, 6)
EXP_ID = make_experiment_id(33)


def _path(sim, hops, rate_bps=units.gbps(10), last_rate_bps=None):
    """src → … → dst, one ``(node, delay, loss)`` per link, naming the node
    the link leads to: an element's name, or None for a router (ignored on
    the last link, which leads to dst). Returns ``(src, elements, dst)``."""
    topo = Topology(sim)
    src = topo.add_host("src", ip="10.0.0.2")
    dst = topo.add_host("dst", ip="10.0.9.2")
    chain, elements = [src], []
    for i, (name, _delay, _loss) in enumerate(hops[:-1], start=1):
        if name is None:
            chain.append(topo.add_router(f"r{i}"))
            continue
        element = ProgrammableElement(sim, name, mac=topo.allocate_mac(), ip=f"10.0.{i}.1")
        topo.add(element)
        chain.append(element)
        elements.append(element)
    chain.append(dst)
    rates = [rate_bps] * (len(hops) - 1) + [last_rate_bps or rate_bps]
    for a, b, rate, (_name, delay, loss) in zip(chain, chain[1:], rates, hops):
        topo.connect(a, b, rate, delay, loss_rate=loss)
    topo.install_routes()
    return src, elements, dst


# -- F2, F3, A3: Fig. 2's pipeline against Fig. 3's over one topology ------


@functools.cache  # F2, F3 and A3 read the same runs
def _scenario(transport: str, wan_ms: int, loss: float, seed: int):
    """300 messages of 8 kB at 1 ms: a 65 Mb/s stream, 300 ms long."""
    config = ScenarioConfig(
        message_count=300,
        message_interval_ns=MILLISECOND,
        wan_delay_ns=wan_ms * MILLISECOND,
        campus_delay_ns=5 * MILLISECOND,
        wan_loss_rate=loss,
    )
    scenario = TodayScenario if transport == "tcp" else MultimodalScenario
    return scenario(sim=Simulator(seed=seed), config=config).run()


def _steady(result):
    """The second half of the storage latencies: past TCP's handshake."""
    latencies = result.storage_latencies_ns
    return latencies[len(latencies) // 2 :]


def _repair_ns(transport, wan_ms, loss):
    """Median over the seeds that lost a steady message of what the
    worst-hit one paid over a loss-free message."""
    repairs = []
    for seed in SEEDS:
        result = _scenario(transport, wan_ms, loss, seed)
        repairs.append(max(_steady(result)) - min(result.storage_latencies_ns))
    return median(r for r in repairs if r)


def _fct_lead_ns(wan_ms, loss):
    """Median TCP storage FCT minus median MMT storage FCT."""
    fct = {
        t: median(_scenario(t, wan_ms, loss, seed).fct_storage_ns for seed in SEEDS)
        for t in ("tcp", "mmt")
    }
    return fct["tcp"] - fct["mmt"]


LOSSY = [(10, 0.01), (10, 0.03), (25, 0.01)]


def test_f2_tcp_loss_costs_a_source_round_trip_and_stretches_the_fct():
    for wan_ms, loss in LOSSY:
        # Dupacks or a timeout, then DTN 1 resends: a WAN round trip at least.
        assert _repair_ns("tcp", wan_ms, loss) >= 2 * wan_ms * MILLISECOND, (wan_ms, loss)
    fct = [median(_scenario("tcp", 10, loss, seed).fct_storage_ns for seed in SEEDS)
           for loss in (0.01, 0.03)]
    assert fct[0] < fct[1]


def test_f3_mmt_repair_costs_one_segment_rtt_and_its_fct_lead_widens_with_loss_and_rtt():
    for wan_ms, loss in LOSSY:
        rtt = 2 * wan_ms * MILLISECOND
        # One NAK round trip to the U280 buffer in front of the lossy WAN.
        assert rtt <= _repair_ns("mmt", wan_ms, loss) <= 1.2 * rtt, (wan_ms, loss)
    assert _fct_lead_ns(10, 0.01) < _fct_lead_ns(10, 0.03)
    assert _fct_lead_ns(10, 0.01) < _fct_lead_ns(25, 0.01)


def test_a3_tcp_tail_detaches_mmt_stays_flat():
    def tail(transport, loss, seed):
        steady = _steady(_scenario(transport, 10, loss, seed))
        return percentile(steady, 0.95) / percentile(steady, 0.5)

    # Loss-free, both are flat (no randomness: one run each).
    assert tail("tcp", 0.0, 1) == tail("mmt", 0.0, 1) == 1.0
    # At 2 % loss TCP's tail detaches: a hole holds back the bytes behind
    # it, and the loss stalls the sender. An MMT loss delays only itself.
    # p95 sits above the loss rate, p99 would not.
    assert median(tail("tcp", 0.02, seed) for seed in SEEDS) >= 1.4
    assert max(tail("mmt", 0.02, seed) for seed in SEEDS) <= 1.05


# -- A2: deadlines as an AQM input ------------------------------------------


def _alerts_in_deadline(queue_kind: str) -> float:
    """Share of 120 alerts (5 ms deadline) delivered in time beside a bulk
    flow offering 2x a 1 Gb/s bottleneck. No loss: one run."""
    sim = Simulator(seed=77)

    def queue_factory():
        if queue_kind == "droptail":
            return DropTailQueue(2_000_000)
        return DeadlineAwareQueue(
            2_000_000,
            deadline_of=lambda p: (
                h.deadline_ns
                if (h := p.mmt) is not None and h.features & Feature.TIMELINESS
                else None
            ),
            now=lambda: sim.now,
        )

    topo = Topology(sim)
    src = topo.add_host("src", ip="10.0.0.2")
    dst = topo.add_host("dst", ip="10.0.1.2")
    router = topo.add_router("bottleneck")
    topo.connect(src, router, units.gbps(10), 100_000)
    topo.connect(router, dst, units.gbps(1), 100_000, queue_factory=queue_factory)
    topo.install_routes()
    src_stack, dst_stack = MmtStack(src), MmtStack(dst)
    in_time = []
    dst_stack.bind_receiver(
        9, on_message=lambda _p, h: in_time.append(sim.now <= h.deadline_ns)
    )
    dst_stack.bind_receiver(10)

    def sender(experiment, deadline_ns):
        return src_stack.create_sender(
            experiment_id=make_experiment_id(experiment), mode="deliver-check",
            dst_ip=dst.ip, age_budget_ns=SECOND, deadline_offset_ns=deadline_ns,
            notify_addr=src.ip, buffer_local=False,
        )

    alerts, bulk = sender(9, 5 * MILLISECOND), sender(10, SECOND)
    for i in range(1200):
        sim.schedule(i * 32_000, bulk.send, 8000)
    for i in range(120):
        sim.schedule(i * 320_000, alerts.send, 8000)
    sim.run()
    return sum(in_time) / 120


def test_a2_deadline_aqm_rescues_the_alerts_droptail_starves():
    assert _alerts_in_deadline("deadline") > 0.9
    assert _alerts_in_deadline("droptail") < 0.5


# -- A4: DUNE → Rubin early warning -----------------------------------------


def test_a4_duplicated_candidates_warn_before_store_and_forward():
    config = SupernovaConfig(
        burst_rate_hz=2_000.0,
        burst_start_ns=200 * MILLISECOND,
        burst_duration_ns=100 * MILLISECOND,
    )
    for seed in SEEDS:
        runs = compare(config, seed=seed)
        today, mmt = runs["today"].warning_latency_ns, runs["mmt"].warning_latency_ns
        assert mmt + 20 * MILLISECOND < today < SUPERNOVA_LEAD_TIME_MIN_NS / 100, seed


# -- A5: header cost per mode -----------------------------------------------


def test_a5_every_mode_header_is_8_to_64_bytes_under_1pct_of_a_jumbo_message():
    context = TransitionContext(
        now_ns=0, seq=1, buffer_addr="10.0.0.1", deadline_ns=1000,
        notify_addr="10.0.0.2", age_budget_ns=500, pace_rate_mbps=1000,
        source_addr="10.0.0.3", dup_group=1, dup_copies=2,
    )
    sizes = {}
    for mode in extended_registry():
        header = MmtHeader(config_id=0, experiment_id=1 << 8)
        transition(header, mode, context)
        assert len(header.encode()) == header.size_bytes
        sizes[mode.name] = header.size_bytes
    assert sizes["identify"] == 8
    assert all(8 <= size <= 64 and size / (size + 8192) < 0.01 for size in sizes.values()), sizes


# -- A6: the single-stream ceiling -------------------------------------------

#: 100 GbE and 1 GB buffers, divided by 100 together. Random loss keeps
#: TCP's ceiling (MSS / (RTT·√p)) at the same share of line rate when
#: it grows by 100², so 1e-6 at 100 GbE is 1e-2 here.
SCALE = 100
LINE_BPS = units.gbps(100) // SCALE
TRANSFER = 4 * 1000 * 1000


def _single_stream(rtt_ms, seed):
    sim = Simulator(seed=seed)
    src, _, dst = _path(
        sim, [(None, units.microseconds(5), 0.0), (None, rtt_ms * MILLISECOND // 2, 1e-2)],
        rate_bps=LINE_BPS,
    )
    return sim, src, dst


def _tcp_goodput(rtt_ms, seed):
    sim, src, dst = _single_stream(rtt_ms, seed)
    config = tuned_100g()
    config.recv_buffer_bytes //= SCALE
    TcpStack(dst).listen(5000, config=config)
    conn = TcpStack(src).connect(dst.ip, 5000, config=config)
    done = []
    conn.on_all_acked = lambda: done.append(sim.now)
    conn.send(TRANSFER)
    sim.run()
    return TRANSFER * 8 * SECOND / done[0]


def _mmt_goodput(rtt_ms, seed):
    """Paced at 95 % of line rate, no congestion control; the rate at which
    first transmissions arrive, with every loss repaired beside them."""
    sim, src, dst = _single_stream(rtt_ms, seed)
    registry = extended_registry()
    first_tries = []

    def on_message(_packet, header):
        if header.msg_type.name == "DATA":
            first_tries.append(sim.now)

    receiver = MmtStack(dst, registry).bind_receiver(33, on_message=on_message)
    stack = MmtStack(src, registry)
    stack.attach_buffer(512 * 1024 * 1024 // SCALE)
    sender = stack.create_sender(
        experiment_id=EXP_ID, mode="paced", dst_ip=dst.ip,
        pace_rate_mbps=95_000 // SCALE, buffer_local=True,
    )
    count = TRANSFER // 8192
    for _ in range(count):
        sender.send(8192)
    sender.finish()
    sim.run()
    receiver.request_missing(EXP_ID, count)
    sim.run()
    assert receiver.stats.messages_delivered == count
    return (len(first_tries) - 1) * 8192 * 8 * SECOND / (first_tries[-1] - first_tries[0])


def test_a6_tcp_single_stream_falls_with_rtt_while_paced_mmt_holds_line_rate():
    rtts = (1, 10, 50)
    tcp = {rtt: [_tcp_goodput(rtt, seed) for seed in SEEDS] for rtt in rtts}
    mmt = {rtt: [_mmt_goodput(rtt, seed) for seed in SEEDS] for rtt in rtts}
    for rtt in rtts:
        assert all(t < m and m >= 0.9 * LINE_BPS for t, m in zip(tcp[rtt], mmt[rtt])), rtt
    assert median(tcp[1]) > median(tcp[10]) > median(tcp[50])
    medians = [median(mmt[rtt]) for rtt in rtts]
    assert max(medians) < 1.05 * min(medians)


# -- A7: in-network backpressure ----------------------------------------------


def _backpressure(mode: str):
    """600 8 kB messages paced at 4 Gb/s into a 1 Gb/s hop. No loss: one run."""
    sim = Simulator(seed=55)
    src, (element,), dst = _path(
        sim, [("el", 50_000, 0.0), (None, 50_000, 0.0)], last_rate_bps=units.gbps(1)
    )
    if mode == "backpressured":
        BackpressureProgram(
            occupancy_threshold_pct=30, advised_rate_mbps=900, min_interval_ns=MILLISECOND
        ).install(element)
    AgeUpdateProgram().install(element)
    registry = extended_registry()
    receiver = MmtStack(dst, registry).bind_receiver(
        33, config=ReceiverConfig(initial_rtt_ns=2 * MILLISECOND)
    )
    stack = MmtStack(src, registry)
    stack.attach_buffer(256 * 1024 * 1024)
    sender = stack.create_sender(
        experiment_id=EXP_ID, mode=mode, dst_ip=dst.ip, pace_rate_mbps=4_000, buffer_local=True
    )
    for _ in range(600):
        sender.send(8000)
    sender.finish()
    sim.run()
    receiver.request_missing(EXP_ID, 600)
    sim.run()
    return sender, receiver, element.ports["to_dst"].queue.dropped


def test_a7_backpressure_throttles_the_source_and_ends_bottleneck_drops():
    plain_sender, _, plain_drops = _backpressure("paced")
    sender, receiver, drops = _backpressure("backpressured")
    assert plain_sender.pace_rate_mbps == 4_000 and plain_drops > 0
    assert sender.stats.backpressure_signals >= 1 and sender.pace_rate_mbps <= 900
    assert drops == 0 and receiver.stats.messages_delivered == 600


# -- A8: resource discovery and work distribution ------------------------------

ALL_CAPS = frozenset(
    {Capability.MODE_TRANSITION, Capability.RETRANSMIT_BUFFER, Capability.AGE_UPDATE}
)


def _convergence(domains: int):
    """A chain of ``domains`` map speakers, 15 ms sessions. No loss: one run."""
    sim = Simulator(seed=5)
    speakers = [MapSpeaker(sim, f"d{i}") for i in range(domains)]
    for a, b in zip(speakers, speakers[1:]):
        a.peer_with(b, 15 * MILLISECOND)
    for i, speaker in enumerate(speakers):
        speaker.advertise(ResourceDescriptor(
            node=f"element{i}", domain=speaker.domain, address=f"10.0.{i}.1",
            capabilities=ALL_CAPS, buffer_bytes=1 << 28,
        ))
    sim.run()
    assert converge(speakers)
    return sim.now, sum(s.updates_sent for s in speakers)


def _auto_placed(seed: int):
    """500 messages over a plan computed from the map, 3 % loss on the
    last two hops."""
    sim = Simulator(seed=seed)
    hops = [("e1", 3 * MILLISECOND, 0.0), ("e2", 3 * MILLISECOND, 0.0),
            ("e3", 3 * MILLISECOND, 0.03), (None, 3 * MILLISECOND, 0.03)]
    src, elements, dst = _path(sim, hops)
    resource_map = ResourceMap()
    for element in elements:
        resource_map.upsert(ResourceDescriptor(
            node=element.name, domain="wan", address=element.ip,
            capabilities=ALL_CAPS, buffer_bytes=1 << 28,
        ))
    registry = extended_registry()
    intent = FlowIntent(experiment_id=EXP_ID, reliable=True, age_budget_ns=SECOND)
    plan = plan_flow(resource_map, ["src", "e1", "e2", "e3", "dst"], intent, registry)
    install_plan(plan, {e.name: e for e in elements}, registry)
    receiver = MmtStack(dst, registry).bind_receiver(
        33, config=ReceiverConfig(initial_rtt_ns=15 * MILLISECOND)
    )
    sender = MmtStack(src, registry).create_sender(
        experiment_id=EXP_ID, mode="identify", dst_ip=dst.ip
    )
    for i in range(500):
        sim.schedule(i * 4_000, sender.send, 4000)
    sim.run()
    receiver.request_missing(EXP_ID, 500)
    sim.run()
    return receiver.stats, src.rx_unhandled


def test_a8_map_converges_in_one_diameter_and_auto_placed_flows_recover_in_network():
    for domains in (2, 4, 8, 16):
        time_ns, updates = _convergence(domains)
        assert time_ns <= (domains - 1) * 15 * MILLISECOND
        assert updates == domains * (domains - 1)  # each descriptor crosses each domain once
    for seed in SEEDS:
        stats, source_rx = _auto_placed(seed)
        assert stats.messages_delivered == 500 and stats.unrecovered == 0
        assert stats.naks_sent > 0 and source_rx == 0  # repaired, never by the source


# -- A10: hop-by-hop (X.25-style) repair ---------------------------------------


def _worst_excess(tail_ms: int, repair: bool, seed: int) -> int:
    """Loss on the 5 ms e1–e2 segment, consumer ``tail_ms`` past e2: how much
    later than a loss-free message the worst-hit one of 300 arrives."""
    sim = Simulator(seed=seed)
    src, (e1, e2), dst = _path(sim, [
        ("e1", MILLISECOND, 0.0), ("e2", 5 * MILLISECOND, 0.03), (None, tail_ms * MILLISECOND, 0.0)
    ])
    registry = pilot_registry()
    ModeTransitionProgram(registry, [
        TransitionRule(from_config_id=0, to_mode="age-recover",
                       buffer_addr=e1.ip, age_budget_ns=SECOND),
    ]).install(e1)
    for element in (e1, e2):
        element.attach_buffer(512 * 1024 * 1024)
        BufferTapProgram(buffer_addr=element.ip).install(element)
    AgeUpdateProgram().install(e1)
    e2.nak_fallback_addr = e1.ip
    if repair:
        # First retry after 2 x 6 ms, just over the 10 ms e2–e1 round trip.
        SegmentRecoveryProgram(
            upstream_buffer_addr=e1.ip,
            config=ReceiverConfig(reorder_wait_ns=200_000, initial_rtt_ns=6 * MILLISECOND),
        ).install(e2)
    receiver = MmtStack(dst, registry).bind_receiver(
        33,
        config=ReceiverConfig(
            initial_rtt_ns=2 * (tail_ms + 6) * MILLISECOND,
            reorder_wait_ns=30 * MILLISECOND if repair else 50_000,
        ),
    )
    sender = MmtStack(src, registry).create_sender(
        experiment_id=EXP_ID, mode="identify", dst_ip=dst.ip
    )
    for i in range(300):
        sim.schedule(i * 20_000, sender.send, 1500)
    sim.run()
    receiver.request_missing(EXP_ID, 300)
    sim.run()
    assert receiver.stats.unrecovered == 0
    return max(latency for _t, latency in receiver.delivery_log) - (6 + tail_ms) * MILLISECOND


def test_a10_segment_repair_is_pinned_to_the_lossy_segment_receiver_naks_are_not():
    tails = (5, 25, 50)
    by_receiver = [median(_worst_excess(t, False, seed) for seed in SEEDS) for t in tails]
    in_network = [median(_worst_excess(t, True, seed) for seed in SEEDS) for t in tails]
    assert by_receiver[0] < by_receiver[1] < by_receiver[2]
    # Two 10 ms segment round trips at most, wherever the consumer sits.
    assert all(net <= 25 * MILLISECOND for net in in_network), in_network
    assert all(net < rx for net, rx in zip(in_network, by_receiver))
