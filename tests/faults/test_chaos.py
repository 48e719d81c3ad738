"""Chaos scenarios end to end: recovery, failover, degradation,
determinism of the committed BENCH_chaos.json metrics."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro import faults
from repro.cli import main
from repro.faults import SCENARIOS, ChaosConfig, run_chaos, run_scenarios, write_bench

#: Small-but-representative traffic for test speed.
FAST = dict(messages=150, payload_size=4000)


def fast_config(scenario, **overrides):
    return ChaosConfig(scenario=scenario, **FAST, **overrides)


class TestScenarios:
    @pytest.mark.parametrize("scenario", ["link-flap", "burst-loss", "element-restart"])
    def test_outage_scenarios_fully_recover(self, scenario):
        run = run_chaos(fast_config(scenario))
        r = run.report
        assert r.complete, f"{scenario}: {r.unrecovered} unrecovered"
        assert r.faults_fired == r.faults_injected
        assert r.time_to_recover_ns >= 0

    def test_link_flap_loses_then_recovers_via_naks(self):
        run = run_chaos(fast_config("link-flap"))
        r = run.report
        assert r.lost_down > 0  # the outage really dropped frames
        assert r.retransmissions > 0
        assert r.naks_served > 0

    def test_link_drift_recovers_under_trajectories(self):
        run = run_chaos(fast_config("link-drift"))
        r = run.report
        assert r.complete, f"link-drift: {r.unrecovered} unrecovered"
        # The trajectories actually moved the link and the GE model
        # actually drifted mid-window.
        assert r.link_rate_changes > 0
        assert r.link_delay_changes > 0
        assert r.lost_model > 0
        # The drift schedule is part of the plan and fired fully.
        assert r.faults_fired == r.faults_injected
        # The drivers are bounded: the run reached quiescence (we are
        # here) and the link ends at the trajectories' final values.
        assert run.pilot.wan_link.loss_model is None

    def test_burst_loss_uses_the_model(self):
        run = run_chaos(fast_config("burst-loss"))
        r = run.report
        assert r.lost_model > 0
        assert r.lost_down == 0
        assert run.pilot.wan_link.loss_model is None  # removed at window end

    def test_element_restart_drops_and_wipes(self):
        run = run_chaos(fast_config("element-restart"))
        tofino = run.pilot.tofino
        assert tofino.stats.crashes == 1
        assert tofino.stats.restarts == 1
        assert tofino.stats.dropped_failed > 0
        assert run.report.complete


class TestBufferFailover:
    def test_failover_buffer_serves_naks_zero_unrecovered(self):
        run = run_chaos(fast_config("buffer-failover"))
        r = run.report
        assert r.unrecovered == 0
        assert r.delivered == r.messages_sent
        # The kill was recorded and the Tofino re-stamped flows.
        assert r.directory_marks_down == 1
        assert r.buffer_failovers >= 1
        # The DTN 1 failover buffer actually served recoveries.
        assert r.failover_served > 0
        assert run.pilot.buffer.failed
        # Re-stamp is observable in the telemetry scrape.
        assert (
            run.metrics.counter("nearest_buffer_failovers", element="tofino2").value
            >= 1
        )
        assert run.metrics.counter("buffer_directory_marks_down").value == 1

    def test_no_failover_degrades_gracefully(self):
        run = run_chaos(fast_config("buffer-failover-degraded"))
        r = run.report
        # The one scenario that passes by degrading instead of recovering.
        assert run.passed and not r.complete
        sender = run.pilot.dtn1_sender
        # The sender noticed there is no live buffer and shed reliability.
        assert r.mode_degradations == 1
        assert sender.degraded
        assert sender.mode.config_id == 0  # identification-only
        assert r.degraded_final == 1  # bounded re-checks, then gave up
        # The receiving endpoint heard the announcement.
        announcements = run.pilot.dtn2_stack.mode_announcements
        assert len(announcements.get(run.pilot.experiment_id, [])) == 1
        # Bounded NAKs, no storm: every outstanding seq is capped by
        # max_naks, and NAK flushes coalesce ranges into single packets.
        cap = run.pilot.dtn2_receiver.config.max_naks * 8
        assert 0 < r.naks_sent <= cap
        # Losses while degraded are genuinely unrecoverable — recorded,
        # not retried forever.
        assert r.unrecovered > 0
        assert run.pilot.sim.pending_events() == 0

    def test_degraded_run_counts_only_sequence_numbers_it_sent(self):
        """A degraded sender relays messages that take no sequence
        number; reconciling against relay counts NAKed phantoms."""
        run = run_chaos(fast_config("buffer-failover-degraded"))
        r, sender = run.report, run.pilot.dtn1_sender
        assert sender.next_seq < run.pilot.dtn1_relayed
        assert r.unrecovered <= sender.next_seq
        assert r.delivered + r.unrecovered <= r.messages_sent


class TestDeterminism:
    def test_same_seed_byte_identical_bench(self, tmp_path):
        cfg = fast_config("buffer-failover", seed=31)
        first = tmp_path / "first"
        second = tmp_path / "second"
        first.mkdir()
        second.mkdir()
        path1 = write_bench([run_chaos(cfg)], first)
        path2 = write_bench([run_chaos(fast_config("buffer-failover", seed=31))], second)
        assert path1.read_bytes() == path2.read_bytes()

    def test_different_seed_changes_metrics(self):
        a = run_chaos(fast_config("burst-loss", seed=1)).report
        b = run_chaos(fast_config("burst-loss", seed=2)).report
        assert a.metrics() != b.metrics()

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            run_chaos(fast_config("meteor-strike"))


class TestBenchOutput:
    def test_run_scenarios_covers_all_plus_degraded(self, tmp_path):
        runs = run_scenarios(ChaosConfig(messages=80, payload_size=2000))
        names = [r.scenario for r in runs]
        assert names == list(SCENARIOS)
        assert names[-1] == "buffer-failover-degraded"
        path = write_bench(runs, tmp_path)
        data = json.loads(path.read_text())
        assert path.name == "BENCH_chaos.json"
        assert data["schema_version"] == 1
        assert data["wall_time_s"] == 0.0  # sim-derived only, replayable
        assert set(data["metrics"]) == set(names)
        for metrics in data["metrics"].values():
            assert metrics["faults_fired"] == metrics["faults_injected"]

    def test_write_bench_creates_out_dir(self, tmp_path):
        run = run_chaos(ChaosConfig(scenario="link-flap", messages=40, payload_size=1000))
        path = write_bench([run], tmp_path / "nested" / "out")
        assert path.exists()

    def test_committed_bench_matches_regeneration(self, tmp_path):
        """Every row of the committed BENCH_chaos.json regenerates, byte
        for byte, from one matrix run at its params — guards against
        stale commits and against any scenario drifting."""
        committed = Path(__file__).resolve().parents[2] / "BENCH_chaos.json"
        if not committed.exists():
            pytest.skip("no committed BENCH_chaos.json")
        data = json.loads(committed.read_text())
        params = data["params"]
        assert params["wan_delay_ns"] == faults.chaos.WAN_DELAY_NS
        runs = run_scenarios(ChaosConfig(
            messages=params["messages"],
            payload_size=params["payload_size"],
            interval_ns=params["interval_ns"],
            seed=data["seed"],
        ))
        path = write_bench(runs, tmp_path)
        fresh = json.loads(path.read_text())
        for run in runs:
            assert fresh["metrics"][run.scenario] == data["metrics"][run.scenario], run.scenario
        assert path.read_bytes() == committed.read_bytes()


class TestCliVerdict:
    """``repro chaos`` exits 1 unless every run recovered completely —
    or, for the one scenario that leaves no live buffer, degraded."""

    @pytest.mark.parametrize("loss", [{"unrecovered": 1}, {"content_mismatches": 1}])
    def test_degrading_scenario_still_fails_on_loss(self, monkeypatch, tmp_path, loss):
        # The churn scenario degrades every sender by design; that must
        # not excuse a lost or corrupted message.
        real = faults.run_chaos

        def lossy(cfg):
            run = real(cfg)
            return dataclasses.replace(run, report=dataclasses.replace(run.report, **loss))

        monkeypatch.setattr(faults, "run_chaos", lossy)
        argv = ["chaos", "--scenario", "mode-rewrite-churn", "--messages", "120",
                "--out-dir", str(tmp_path)]
        assert main(argv) == 1
