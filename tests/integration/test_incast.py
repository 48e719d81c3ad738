"""The incast head-to-head: harness invariants, golden pins, the gate.

Four layers of protection for the Fig. 2 grid:

- harness invariants (fan-in placement, load accounting, label scheme);
- two-seed golden wire-trace pins for the MMT cell, in the
  ``tests/dataplane/test_golden_replay.py`` style — every MMT packet
  crossing any fabric link, with its ECN codepoint (the new wire
  behavior this PR pins);
- the head-to-head gate itself: at N = 16 under overload, MMT completes
  every flow and its p99 FCT beats ECN-enabled TCP's;
- shard determinism: the merged grid campaign is identical for every
  job count.
"""

import hashlib

import pytest

from repro.analysis.fct import FctCollector
from repro.analysis.shard import campaign_digest, incast_case_metrics, run_sharded
from repro.integration import incast
from repro.integration.incast import (
    IncastConfig,
    case_label,
    grid_configs,
    run_incast,
    small_grid,
)

#: sha256 over the newline-joined MMT wire trace of the default
#: 4-sender ECN-paced cell (see ``traced_run``), one pin per seed.
GOLDEN_INCAST = {
    7: ("eb76bc399db943ef55bf0c9c2ff3717b642e9e9701822174203470b78a510220", 2308),
    42: ("af4ed7ae89e3e2c364dab22b8ec68a35f420fa77e7458f8b45866e6267596f58", 2296),
}


def traced_run(seed, transport="mmt", senders=4):
    """Run one cell with every fabric link tapped; returns the MMT wire
    trace (time, link, direction, ECN codepoint, header bytes, size)."""
    lines: list[str] = []

    def instrument(fabric):
        for link in fabric.topology.links:
            end_a, end_b = link.ends
            for port, peer in ((end_a, end_b), (end_b, end_a)):

                def tapped(
                    packet,
                    _orig=port.deliver,
                    _port=port,
                    _label=f"{link.name}:{peer.node.name}->{port.node.name}",
                ):
                    mmt = packet.mmt
                    if mmt is not None:
                        ip = packet.ip
                        lines.append(
                            f"{_port.node.sim.now}|{_label}|ecn{ip.ecn if ip else '-'}"
                            f"|{mmt.encode(validate=False).hex()}|{packet.payload_size}"
                        )
                    _orig(packet)

                port.deliver = tapped

    config = IncastConfig(transport=transport, senders=senders, seed=seed)
    report = run_incast(config, instrument=instrument)
    return lines, report


class TestGoldenPins:
    @pytest.mark.parametrize("seed", sorted(GOLDEN_INCAST))
    def test_mmt_wire_trace_matches_golden_digest(self, seed):
        lines, report = traced_run(seed)
        expected_digest, expected_records = GOLDEN_INCAST[seed]
        assert len(lines) == expected_records
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == expected_digest
        assert report.summary.completed == report.summary.flows

    def test_replay_is_byte_identical(self):
        first, _ = traced_run(7)
        second, _ = traced_run(7)
        assert first == second

    def test_ecn_paced_traffic_is_ect_and_gets_marked(self):
        lines, report = traced_run(7)
        codepoints = {line.split("|")[2] for line in lines}
        # Data is ECT(0)-stamped; the fan-in marks some of it CE.
        assert "ecn2" in codepoints
        assert "ecn3" in codepoints
        assert report.ce_marked > 0
        assert report.early_drops == 0  # marking replaced dropping


class TestHarness:
    def test_fan_in_splits_senders_across_leaves(self):
        seen = {}

        def instrument(fabric):
            seen["hosts"] = [h.name for leaf in fabric.hosts for h in leaf]
            seen["receiver"] = fabric.receiver.name

        run_incast(IncastConfig(senders=5, seed=7, horizon_ns=1_000_000),
                   instrument=instrument)
        assert seen["receiver"] == "h0_0"
        # 5 senders: ceil-half (3) remote on leaf 1, 2 local on leaf 0.
        assert "h1_2" in seen["hosts"]

    def test_flow_bytes_scale_with_load_and_fan_in(self):
        base = IncastConfig(senders=4, load=1.0, seed=7)
        heavier = IncastConfig(senders=4, load=2.0, seed=7)
        wider = IncastConfig(senders=8, load=1.0, seed=7)
        assert heavier.flow_bytes == 2 * base.flow_bytes
        assert wider.flow_bytes == base.flow_bytes // 2
        # Whole messages only.
        assert base.flow_bytes % base.message_bytes == 0

    def test_asym_cell_narrows_the_receiver_downlink(self):
        sym = IncastConfig(symmetric=True, seed=7)
        asym = IncastConfig(symmetric=False, seed=7)
        assert asym.bottleneck_rate_bps < sym.bottleneck_rate_bps
        assert asym.flow_bytes < sym.flow_bytes  # load tracks the bottleneck

    def test_case_labels_are_unique_and_sortable(self):
        configs = grid_configs()
        labels = [case_label(config) for config in configs]
        assert len(set(labels)) == len(labels)
        for label in labels:
            assert label.startswith("seed")

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            IncastConfig(transport="sctp")
        with pytest.raises(ValueError):
            IncastConfig(senders=0)
        with pytest.raises(ValueError):
            IncastConfig(load=0)
        with pytest.raises(ValueError):
            IncastConfig(mark_threshold=1.5)


class TestHeadToHead:
    def test_mmt_beats_tcp_tail_at_deep_fan_in(self):
        """The CI gate: N = 16 under overload — MMT completes all flows
        losslessly and its p99 FCT is no worse than ECN-enabled TCP's."""
        mmt = run_incast(IncastConfig(transport="mmt", senders=16, seed=7))
        tcp = run_incast(IncastConfig(transport="tcp", senders=16, seed=7))
        assert mmt.summary.completed == mmt.summary.flows
        assert mmt.dropped == 0
        assert mmt.ce_marked > 0
        assert mmt.summary.p99_ns is not None
        assert tcp.summary.p99_ns is None or mmt.summary.p99_ns <= tcp.summary.p99_ns

    def test_udp_losses_stay_lost(self):
        report = run_incast(IncastConfig(transport="udp", senders=16, seed=7))
        # Open loop: the AQM drops (UDP is not ECT) and nothing recovers.
        assert report.early_drops > 0
        assert report.summary.unfinished > 0


class TestRecoveryTick:
    """The MMT cell's pace-recovery tick runs while a flow is open."""

    TICK_NS = 250_000

    def ticks_and_finishes(self, monkeypatch, config):
        """``(report, tick fire times, flow finish times)`` of one cell."""
        ticks, finishes = [], []
        finish = FctCollector.finish

        class RecordingTimer(incast.Timer):
            def __init__(self, sim, callback):
                def fired():
                    ticks.append(sim.now)
                    callback()

                super().__init__(sim, fired)

        def recording_finish(collector, flow, now_ns):
            finishes.append(now_ns)
            finish(collector, flow, now_ns)

        monkeypatch.setattr(incast, "Timer", RecordingTimer)
        monkeypatch.setattr(FctCollector, "finish", recording_finish)
        return run_incast(config), ticks, finishes

    def test_tick_stops_within_one_tick_of_the_last_completion(self, monkeypatch):
        config = IncastConfig(transport="mmt", senders=16, seed=7)
        report, ticks, finishes = self.ticks_and_finishes(monkeypatch, config)
        assert report.summary.completed == 16 and len(finishes) == 16
        assert max(finishes) <= ticks[-1] < max(finishes) + self.TICK_NS
        assert ticks[-1] < config.horizon_ns // 10

    def test_tick_runs_to_the_horizon_while_a_flow_is_open(self, monkeypatch):
        config = IncastConfig(transport="mmt", senders=16, seed=7, horizon_ns=2_000_000)
        report, ticks, _finishes = self.ticks_and_finishes(monkeypatch, config)
        assert report.summary.unfinished > 0
        assert config.horizon_ns - 1 - self.TICK_NS <= ticks[-1] < config.horizon_ns
        assert len(ticks) == (config.horizon_ns - 1) // self.TICK_NS


class TestShardDeterminism:
    def test_jobs_do_not_change_the_campaign(self):
        configs = small_grid(seeds=(7,), transports=("mmt", "tcp"))
        sequential = run_sharded(incast_case_metrics, configs, jobs=1)
        fanned = run_sharded(incast_case_metrics, configs, jobs=2)
        assert sequential == fanned
        assert campaign_digest(sequential) == campaign_digest(fanned)
