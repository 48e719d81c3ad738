"""End-to-end: the Fig. 4 pilot with telemetry on, snapshot to render.

The acceptance path of the subsystem — INT postcards ride the pilot's
three programmable hops (Alveo U280 → Tofino2 → Alveo U55C), the sink
at DTN 2 strips them, the end-of-run scrape pulls every component's
counters, and the JSONL snapshot answers the operator questions the
issue lists: per-segment latency, queue high-water marks, and mode-1
recovery counts.
"""

import pytest

from repro.dataplane import PilotConfig, PilotTestbed
from repro.netsim import Simulator
from repro.netsim.units import MILLISECOND
from repro.telemetry import read_snapshot, write_snapshot
from tests.conftest import instrument

HOPS = ("alveo-u280", "tofino2", "alveo-u55c")
SEGMENTS = ("alveo-u280->tofino2", "tofino2->alveo-u55c")


@pytest.fixture(scope="module")
def lossy_run():
    """One lossy pilot run with telemetry, shared by the assertions."""
    config = PilotConfig(
        wan_delay_ns=10 * MILLISECOND, wan_loss_rate=0.01, telemetry=True
    )
    pilot = PilotTestbed(sim=Simulator(seed=42), config=config)
    pilot.send_stream(300, payload_size=8000, interval_ns=2_000)
    report = pilot.run()
    registry = pilot.collect_telemetry()
    return pilot, report, registry


def test_every_hop_postcards_every_marked_packet(lossy_run):
    pilot, report, registry = lossy_run
    assert report.complete
    # The source (U280) marks every relayed data message. Buffer-served
    # retransmissions are rebuilt without a stack (a stale one would
    # report the original traversal), so they arrive unmarked — INT
    # coverage is the original transmissions.
    marked = pilot.u280.stats.int_packets_marked
    assert marked == report.dtn1_relayed
    stripped = instrument(registry, "counter", "int_packets_stripped").value
    assert report.delivered - report.retransmissions <= stripped <= marked
    # Each surviving marked packet crossed all three hops exactly once.
    for hop in HOPS:
        count = instrument(registry, "counter", "int_hop_postcards_total", hop=hop).value
        assert count == stripped, f"{hop} postcards missing"
    assert instrument(registry, "counter", "int_postcards_total").value == 3 * stripped
    assert pilot.u280.stats.int_stack_full == 0


def test_segment_latency_histograms_reflect_the_topology(lossy_run):
    _pilot, report, registry = lossy_run
    stripped = instrument(registry, "counter", "int_packets_stripped").value
    for segment in SEGMENTS:
        hist = instrument(registry, "histogram", "int_segment_latency_ns", segment=segment)
        assert hist is not None and hist.count == stripped
    # The WAN segment (10 ms propagation) dominates the intra-site one.
    lan = instrument(registry, "histogram", "int_segment_latency_ns", segment=SEGMENTS[0])
    wan = instrument(registry, "histogram", "int_segment_latency_ns", segment=SEGMENTS[1])
    assert wan.min > 10 * MILLISECOND > lan.max


def test_mode1_recovery_counts_surface_in_telemetry(lossy_run):
    _pilot, report, registry = lossy_run
    assert report.retransmissions > 0  # 1% WAN loss must trigger recovery
    assert instrument(
        registry, "counter", "mmt_rx_retransmissions_received", host="dtn2"
    ).value == report.retransmissions
    assert instrument(
        registry, "counter", "mmt_rx_naks_sent", host="dtn2"
    ).value == report.naks_sent
    assert instrument(
        registry, "counter", "element_naks_served", element="alveo-u280"
    ).value == report.naks_served
    # Hostile-input drops are exported beside the demux misses (zero here).
    assert instrument(registry, "counter", "mmt_rx_malformed", host="dtn2").value == 0
    assert instrument(
        registry, "counter", "element_rx_malformed", element="alveo-u280"
    ).value == 0


def test_queue_high_water_marks_recorded(lossy_run):
    pilot, _report, registry = lossy_run
    peaks = [
        metric for metric in registry.collect()
        if metric.name == "queue_peak_bytes"
    ]
    assert peaks and any(gauge.peak > 0 for gauge in peaks)
    # The gauge agrees with the queue it scraped.
    port = pilot.u280.ports["to_tofino2"]
    gauge = instrument(
        registry, "gauge", "queue_peak_bytes", node="alveo-u280", port="to_tofino2"
    )
    assert gauge.peak == port.queue.peak_bytes > 0


def test_snapshot_round_trip_answers_operator_queries(lossy_run, tmp_path):
    _pilot, report, registry = lossy_run
    path = str(tmp_path / "pilot.jsonl")
    write_snapshot(registry, path, meta={"seed": 42, "scenario": "pilot"})
    snap = read_snapshot(path)
    assert snap.meta["scenario"] == "pilot"
    assert snap.value("mmt_rx_retransmissions_received", host="dtn2") == \
        report.retransmissions
    for segment in SEGMENTS:
        assert snap.quantile("int_segment_latency_ns", 0.99, segment=segment)
    assert snap.get("queue_peak_bytes", node="alveo-u280", port="to_tofino2")


def test_telemetry_disabled_leaves_no_trace():
    config = PilotConfig(wan_delay_ns=1 * MILLISECOND)
    pilot = PilotTestbed(sim=Simulator(seed=42), config=config)
    pilot.send_stream(50, payload_size=2000, interval_ns=2_000)
    report = pilot.run()
    assert report.complete
    assert pilot.metrics is None
    with pytest.raises(RuntimeError, match="telemetry disabled"):
        pilot.collect_telemetry()
    # No element marks packets, so nothing on the wire grew.
    assert pilot.u280.stats.int_packets_marked == 0
    assert pilot.dtn2_stack.int_sink is None


def test_sampling_marks_a_subset():
    config = PilotConfig(
        wan_delay_ns=1 * MILLISECOND, telemetry=True, int_sample_every=4
    )
    pilot = PilotTestbed(sim=Simulator(seed=42), config=config)
    pilot.send_stream(100, payload_size=2000, interval_ns=2_000)
    report = pilot.run()
    assert report.complete
    marked = pilot.u280.stats.int_packets_marked
    assert marked == 100 // 4
    registry = pilot.collect_telemetry()
    assert instrument(registry, "counter", "int_packets_stripped").value == marked


def test_delivered_payloads_carry_no_int_header():
    """The sink strips the stack before the application sees the packet."""
    seen = []
    config = PilotConfig(wan_delay_ns=1 * MILLISECOND, telemetry=True)
    pilot = PilotTestbed(sim=Simulator(seed=42), config=config)
    original = pilot._deliver_at_dtn2

    def spy(packet, header):
        seen.append(packet.int_)
        original(packet, header)

    pilot.dtn2_receiver.on_message = spy
    pilot.send_stream(20, payload_size=2000, interval_ns=2_000)
    pilot.run()
    assert seen and all(header is None for header in seen)
