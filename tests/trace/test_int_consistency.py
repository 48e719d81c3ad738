"""Satellite 1: INT postcards and trace spans must tell the same story.

Two independent observers watch the same pilot run — postcards ride
*inside* the packets, spans are emitted *by* the elements — and both
stamp the same engine clock. Any divergence (tolerance 0) is an
instrumentation gap.
"""

from repro.analysis import trace_metrics
from repro.dataplane import PilotConfig, PilotTestbed
from repro.netsim import Simulator
from repro.netsim.units import MILLISECOND
from repro.trace import Tracer, attach_recording_sink, verify_int_consistency
from tests.conftest import instrument


class Clock:
    now = 0


def run_pilot(flows: int = 2, messages: int = 48, **overrides):
    pilot = PilotTestbed(
        sim=Simulator(seed=7),
        config=PilotConfig(flows=flows, trace=True, telemetry=True, **overrides),
    )
    sink = attach_recording_sink(pilot)
    pilot.send_split(messages, payload_size=4000, interval_ns=2000)
    report = pilot.run()
    return pilot, sink, report


def test_clean_pilot_int_matches_trace_exactly():
    pilot, sink, report = run_pilot()
    result = verify_int_consistency(pilot.tracer.events(), sink)
    assert result.packets_checked == report.delivered
    # Three enrolled hops (U280 source, Tofino2, U55C) per delivery.
    assert result.postcards_checked == 3 * report.delivered
    assert result.ok, result.mismatches


def test_lossy_pilot_int_matches_trace():
    """Loss and retransmission don't open gaps: a lost packet's
    postcards never reach the sink, and a retransmitted packet's fresh
    postcards match its own (later) egress spans."""
    pilot, sink, report = run_pilot(
        flows=4,
        messages=96,
        wan_loss_rate=0.05,
        wan_delay_ns=1 * MILLISECOND,
        age_budget_ns=MILLISECOND // 2,
    )
    assert report.retransmissions > 0  # the scenario exercises recovery
    result = verify_int_consistency(pilot.tracer.events(), sink)
    assert result.postcards_checked > 0
    assert result.ok, result.mismatches


def test_trace_derived_histograms_agree_with_int():
    """Aggregates rebuilt from spans equal the INT-derived ones for the
    segments both observers cover (hop-to-hop timestamp deltas and
    egress queue occupancy) — counts, sums, and bucket layout."""
    pilot, sink, _report = run_pilot()
    derived = trace_metrics(pilot.tracer.events())

    for segment in ("alveo-u280->tofino2", "tofino2->alveo-u55c"):
        int_hist = instrument(
            sink.registry, "histogram", "int_segment_latency_ns", segment=segment
        )
        trace_hist = instrument(
            derived, "histogram", "trace_segment_latency_ns", segment=segment
        )
        assert int_hist is not None and trace_hist is not None
        assert trace_hist.count == int_hist.count
        assert trace_hist.sum == int_hist.sum
        assert trace_hist.counts == int_hist.counts
        assert trace_hist.min == int_hist.min
        assert trace_hist.max == int_hist.max

    for hop in ("alveo-u280", "tofino2", "alveo-u55c"):
        int_hist = instrument(sink.registry, "histogram", "int_queue_depth_pct", hop=hop)
        trace_hist = instrument(derived, "histogram", "trace_queue_depth_pct", hop=hop)
        assert int_hist is not None and trace_hist is not None
        assert trace_hist.count == int_hist.count
        assert trace_hist.sum == int_hist.sum
        assert trace_hist.counts == int_hist.counts


def test_verify_detects_planted_divergence():
    """The checker is not vacuous: perturb one span's timestamp and the
    tolerance-0 comparison must flag it."""
    pilot, sink, _report = run_pilot(flows=1, messages=8)
    events = list(pilot.tracer.events())  # built records: a copy to plant into
    victim = next(e for e in events if e.kind == "element.egress")
    victim.ts_ns += 1
    result = verify_int_consistency(events, sink)
    assert not result.ok
    assert any("no element.egress span" in m for m in result.mismatches)


def test_verify_reads_a_tracer_and_a_list_of_records_alike():
    """The same planted divergences, held as a tracer's columns and as a
    list of records, get the same report, mismatch strings included."""
    pilot, sink, report = run_pilot(flows=4, messages=96, wan_loss_rate=0.05,
                                    wan_delay_ns=1 * MILLISECOND)
    assert report.retransmissions > 0
    spans = list(pilot.tracer.events())
    egress = [e for e in spans if e.kind == "element.egress" and e.identity is not None]
    shifted, queue, config, missing = egress[3], egress[10], egress[17], egress[24]
    shifted.ts_ns += 1
    planted = []
    for span in spans:
        if span is missing:
            continue
        attrs = span.attrs or {}
        if span is queue:
            attrs["queue_pct"] += 1
        if span is config:
            attrs["config"] = 99
        planted.append((span, attrs))

    clock = Clock()
    tracer = Tracer(clock)
    for span, attrs in planted:
        clock.now = span.ts_ns
        tracer.emit(span.kind, span.element, span.experiment_id, span.flow_id, span.seq, **attrs)

    columns = verify_int_consistency(tracer.events(), sink)
    records = verify_int_consistency(list(tracer.events()), sink)
    assert columns == records
    mismatches = "\n".join(columns.mismatches)
    assert len(columns.mismatches) == 4, mismatches
    assert f"no element.egress span at t={shifted.ts_ns - 1} (1 candidate(s) at other times)" in mismatches
    assert "no element.egress span at t=" in mismatches and "(0 candidate(s) at other times)" in mismatches
    assert "queue_pct" in mismatches and "config 99 != postcard" in mismatches
