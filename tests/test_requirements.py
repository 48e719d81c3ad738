"""Spec conformance: the ten DAQ transport requirements of §3.

One test per requirement, each exercising the library end to end. This
suite is the executable form of the paper's requirements table — if a
refactor breaks a requirement, the failing test names it.
"""


from repro.core import (
    Feature,
    MmtHeader,
    MmtStack,
    extended_registry,
    make_experiment_id,
)
from repro.daq import (
    DaqFrameHeader,
    Mu2ePacket,
    PayloadKind,
    WibFrame,
    frame_message,
    parse_message,
)
from repro.dataplane import PilotConfig, PilotTestbed
from repro.integration import SupernovaConfig, compare
from repro.netsim import Simulator, Topology, units
from repro.netsim.units import MILLISECOND, SECOND

EXP = 7
EXP_ID = make_experiment_id(EXP)


def two_hosts(sim, **link_kwargs):
    topo = Topology(sim)
    a = topo.add_host("a")
    b = topo.add_host("b")
    topo.connect(a, b, units.gbps(100), units.microseconds(10), **link_kwargs)
    topo.install_routes()
    return topo, a, b


def test_req1_operates_on_l2_and_l3(sim):
    """Req 1: works across network types — directly over Ethernet in
    the DAQ net, over IP elsewhere."""
    topo, a, b = two_hosts(sim)
    stack_a = MmtStack(a)
    stack_b = MmtStack(b)
    got = []
    stack_b.bind_receiver(EXP, on_message=lambda p, h: got.append(p))
    l2 = stack_a.create_sender(
        experiment_id=EXP_ID, mode="identify", dst_mac=b.mac,
        l2_port=next(iter(a.ports)),
    )
    l3 = stack_a.create_sender(experiment_id=EXP_ID, mode="identify", dst_ip=b.ip)
    l2.send(100)
    l3.send(200)
    sim.run()
    sizes = sorted(p.payload_size for p in got)
    assert sizes == [100, 200]


def test_req2_high_capacity_line_rate(sim):
    """Req 2: a paced MMT stream sustains ~line rate on 100 GbE."""
    topo, a, b = two_hosts(sim)
    registry = extended_registry()
    stack_a = MmtStack(a, registry)
    stack_b = MmtStack(b, registry)
    arrivals = []
    stack_b.bind_receiver(EXP, on_message=lambda p, h: arrivals.append(sim.now))
    stack_a.attach_buffer(256 * 1024 * 1024)
    sender = stack_a.create_sender(
        experiment_id=EXP_ID, mode="paced", dst_ip=b.ip,
        pace_rate_mbps=95_000, buffer_local=True,
    )
    for _ in range(2_000):
        sender.send(8192)
    sender.finish()
    sim.run()
    window = arrivals[-1] - arrivals[0]
    rate = (len(arrivals) - 1) * 8192 * 8 * SECOND / window
    assert rate > 90e9


def test_req3_timeliness_built_in(sim):
    """Req 3: deadlines are protocol fields, and misses are reported."""
    topo, a, b = two_hosts(sim)
    stack_a = MmtStack(a)
    stack_b = MmtStack(b)
    receiver = stack_b.bind_receiver(EXP)
    stack_a.attach_buffer(1_000_000)
    sender = stack_a.create_sender(
        experiment_id=EXP_ID, mode="deliver-check", dst_ip=b.ip,
        age_budget_ns=SECOND, deadline_offset_ns=1,  # unmeetable
        notify_addr=a.ip, buffer_local=True,
    )
    sender.send(100)
    sender.finish()
    sim.run()
    assert receiver.stats.deadline_misses == 1
    assert len(stack_a.deadline_misses) == 1


def test_req4_reliable(sim):
    """Req 4: every message is delivered despite loss."""
    topo, a, b = two_hosts(sim, loss_rate=0.05)
    stack_a = MmtStack(a)
    stack_b = MmtStack(b)
    receiver = stack_b.bind_receiver(EXP)
    stack_a.attach_buffer(64 * 1024 * 1024)
    sender = stack_a.create_sender(
        experiment_id=EXP_ID, mode="age-recover", dst_ip=b.ip,
        age_budget_ns=SECOND, buffer_local=True,
    )
    for _ in range(200):
        sender.send(1000)
    sender.finish()
    sim.run()
    receiver.request_missing(EXP_ID, 200)
    sim.run()
    assert receiver.complete(EXP_ID, 200)


def test_req5_encrypted_payload_mode():
    """Req 5: the ENCRYPTED marker mode exists; payload bytes cross the
    network untouched (encryption stays with third-party tools)."""
    registry = extended_registry()
    mode = registry.by_name("secure-identify")
    assert mode.has(Feature.ENCRYPTED)
    sim = Simulator(seed=1)
    topo, a, b = two_hosts(sim)
    stack_a = MmtStack(a, registry)
    stack_b = MmtStack(b, registry)
    got = []
    stack_b.bind_receiver(EXP, on_message=lambda p, h: got.append((p.payload, h)))
    sender = stack_a.create_sender(
        experiment_id=EXP_ID, mode="secure-identify", dst_ip=b.ip
    )
    ciphertext = bytes(range(32))
    sender.send(len(ciphertext), payload=ciphertext)
    sim.run()
    payload, header = got[0]
    assert payload == ciphertext
    assert header.features & Feature.ENCRYPTED


def test_req6_uses_in_network_processing():
    """Req 6: the pilot's elements actually do the work — transitions,
    sequence numbering, buffering, age updates all happen in-network."""
    pilot = PilotTestbed(sim=Simulator(seed=9), config=PilotConfig())
    pilot.send_stream(50, payload_size=1000, interval_ns=1000)
    report = pilot.run()
    assert report.mode_transitions_u280 == 50
    assert report.mode_transitions_u55c == 50
    assert report.age_updates_tofino == 50
    assert pilot.u280.stats.mirrored_to_buffer == 50
    assert pilot.u280.pipeline.packets_processed >= 50


def test_req7_message_abstraction(sim):
    """Req 7: discrete datagrams — boundaries preserved, arrivals
    delivered immediately and independently (no bytestream)."""
    topo, a, b = two_hosts(sim)
    stack_a = MmtStack(a)
    stack_b = MmtStack(b)
    got = []
    stack_b.bind_receiver(EXP, on_message=lambda p, h: got.append(p.payload_size))
    sender = stack_a.create_sender(experiment_id=EXP_ID, mode="identify", dst_ip=b.ip)
    for size in (100, 5000, 1, 8192):
        sender.send(size)
    sim.run()
    assert got == [100, 5000, 1, 8192]  # exact boundaries, no merging


def test_req8_instrument_partitioning(sim):
    """Req 8: the header names which slice produced the data."""
    topo, a, b = two_hosts(sim)
    stack_a = MmtStack(a)
    stack_b = MmtStack(b)
    slices = []
    stack_b.bind_receiver(EXP, on_message=lambda p, h: slices.append(h.slice_id))
    for slice_id in (0, 3, 0, 7):
        sender = stack_a.create_sender(
            experiment_id=make_experiment_id(EXP, slice_id),
            mode="identify", dst_ip=b.ip, flow=f"s{slice_id}-{len(slices)}",
        )
        sender.send(64)
    sim.run()
    assert sorted(slices) == [0, 0, 3, 7]


def test_req9_reusable_across_experiments_and_detectors():
    """Req 9: one top-level DAQ header over detector-specific formats,
    and one protocol across every catalog experiment."""
    wib_payload = WibFrame(0, 0, 0, 1, tuple([100] * 256)).encode()
    mu2e_payload = Mu2ePacket(1, 2, 3, b"\x00" * 32).encode()
    for kind, payload in (
        (PayloadKind.WIB_FRAME, wib_payload),
        (PayloadKind.MU2E_PACKET, mu2e_payload),
    ):
        header = DaqFrameHeader(
            detector_id=1, slice_id=0, timestamp_ticks=1, run_number=1,
            payload_kind=kind, payload_bytes=len(payload),
        )
        parsed_header, parsed_payload = parse_message(frame_message(header, payload))
        assert parsed_header.payload_kind == kind
        assert parsed_payload == payload
    # And the MMT experiment-id space covers every Table 1 entry.
    from repro.daq import catalog

    ids = {make_experiment_id(s.experiment_number) for s in catalog()}
    assert len(ids) == len(catalog())


def test_req10_cross_instrument_integration():
    """Req 10: a DUNE trigger steers Vera Rubin well inside the
    neutrino-photon lead time."""
    config = SupernovaConfig(
        burst_start_ns=1 * SECOND, burst_duration_ns=500 * MILLISECOND,
        burst_rate_hz=5_000.0, trigger_threshold=30,
    )
    results = compare(config, seed=3)
    for result in results.values():
        assert result.alert_at_scope_ns is not None
        assert result.warning_latency_ns < 60 * SECOND
