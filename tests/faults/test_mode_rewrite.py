"""Mid-flow shape-shifting: mode-map rewrites.

The path-migration machinery under test, bottom-up: the control-plane
:meth:`ModeTransitionProgram.replace_rules` rewrite (atomic, sequence
register carried over), and the full ``mode-rewrite-churn`` chaos
scenario with its golden counters and a pinned wire digest for two
seeds.
"""

import pytest

from repro.core.modes import ModeError
from repro.dataplane import PilotConfig, PilotTestbed
from repro.dataplane.programs import TransitionRule
from repro.faults import ChaosConfig, run_chaos
from repro.netsim import Simulator
from repro.trace import trace_digest


def _pilot(seed: int = 42, **overrides) -> PilotTestbed:
    return PilotTestbed(
        sim=Simulator(seed=seed), config=PilotConfig(**overrides)
    )


class TestReplaceRules:
    def test_uninstalled_program_refuses(self):
        from repro.core import pilot_registry
        from repro.dataplane.programs import ModeTransitionProgram

        program = ModeTransitionProgram(pilot_registry(), rules=[])
        with pytest.raises(RuntimeError):
            program.replace_rules([])

    def test_rewrite_is_atomic_on_bad_target(self):
        pilot = _pilot()
        program = pilot.u55c_transition
        entries_before = len(program._table.entries)
        rules_before = list(program.rules)
        bad = TransitionRule(from_config_id=1, to_mode="no-such-mode")
        with pytest.raises(ModeError):
            program.replace_rules([bad])
        assert len(program._table.entries) == entries_before
        assert program.rules == rules_before
        assert program.rewrites == 0

    def test_sequence_register_survives_the_rewrite(self):
        """Rewrite the U280's map to an identical rule set mid-stream:
        numbering continues where it left off, so a lossless run stays
        NAK-free — a register reset would make the receiver see a gap
        (or a replay) and start NAKing."""
        pilot = _pilot()
        interval = 2_000
        for i in range(20):
            pilot.sim.schedule(i * interval, pilot.send_message, 2000, 0)
        pilot.sim.run()
        program = pilot.u280_transition
        applied_before = program.transitions_applied
        assert applied_before == 20
        program.replace_rules(list(program.rules))
        for i in range(20):
            pilot.sim.schedule(i * interval, pilot.send_message, 2000, 0)
        report = pilot.run()
        assert program.rewrites == 1
        assert program.transitions_applied == 40
        assert report.delivered == 40
        assert report.naks_sent == 0
        assert report.unrecovered == 0

    def test_empty_rewrite_retires_the_map(self):
        pilot = _pilot()
        pilot.send_message(2000, 0)
        pilot.sim.run()
        program = pilot.u280_transition
        assert program.transitions_applied == 1
        program.replace_rules([])
        pilot.send_message(2000, 0)
        pilot.sim.run()
        assert program.transitions_applied == 1  # nothing matches now
        assert program.rules == []

    def test_rewrite_emits_trace_span(self):
        pilot = _pilot(trace=True)
        pilot.u55c_transition.replace_rules(list(pilot.u55c_transition.rules))
        kinds = [e.kind for e in pilot.tracer.events()]
        assert "mode.rewrite" in kinds


def _churn_report(seed: int):
    return run_chaos(ChaosConfig(
        scenario="mode-rewrite-churn", seed=seed
    )).report


class TestModeRewriteChurnScenario:
    def test_golden_counters_seed_42(self):
        r = _churn_report(42)
        assert r.unrecovered == 0
        assert r.content_mismatches == 0
        assert r.delivered == r.messages_sent == 500
        # The golden degradation ledger: every flow degrades once while
        # both buffers are marked down, and every flow re-upgrades.
        assert r.mode_degradations == 3
        assert r.mode_upgrades == 3
        assert r.degraded_final == 0
        # Two table rewrites: shift and restore.
        assert r.mode_rewrites == 2

    def test_golden_counters_seed_7(self):
        r = _churn_report(7)
        assert r.unrecovered == 0
        assert r.content_mismatches == 0
        assert r.delivered == r.messages_sent == 500
        assert r.mode_degradations == 3
        assert r.mode_upgrades == 3
        assert r.degraded_final == 0
        assert r.mode_rewrites == 2

    def test_replays_byte_identically(self):
        assert _churn_report(42) == _churn_report(42)

    def test_dispatch_through_run_chaos(self):
        run = run_chaos(ChaosConfig(scenario="mode-rewrite-churn", seed=42))
        assert run.scenario == "mode-rewrite-churn"
        # The table entry builds the multi-flow failover pilot.
        assert run.pilot.config.flows == 3
        assert run.pilot.config.buffers == "failover"
        assert run.report == _churn_report(42)

    def test_short_stream_no_sequence_collision(self):
        """Regression: at short streams the ``stream // 20`` mark-up
        margin is smaller than the sensor→U280 relay drain, so a last
        in-flight identify relay used to arrive *after* mark-up, get
        sequenced from the U280 register (seq 0), and be dropped as a
        duplicate of the sender's own seq 0 — one message silently
        corrupted with ``unrecovered == 0``. The mark-up time now
        floors the margin at the config-derived drain bound."""
        r = run_chaos(
            ChaosConfig(scenario="mode-rewrite-churn", messages=120)
        ).report
        assert r.delivered == r.messages_sent == 120
        assert r.content_mismatches == 0
        assert r.duplicates == 0
        assert r.unrecovered == 0
        assert r.mode_degradations == r.mode_upgrades == 3
        assert r.degraded_final == 0


def _rewrite_wire_digest(seed: int) -> str:
    """A traced lossy pilot with a mid-stream U55C map rewrite: the
    digest over every retained wire event pins the whole causal record
    of the migration — any drift in rewrite timing, sequencing, loss
    draws, recovery interleaving, or delivery order changes it. (The
    loss makes the record seed-dependent: two pins, two seeds.)"""
    pilot = _pilot(seed=seed, trace=True, wan_loss_rate=0.08)
    interval = 2_000
    for i in range(30):
        pilot.sim.schedule(i * interval, pilot.send_message, 2000, 0)
    original = list(pilot.u55c_transition.rules)
    age_recover_id = pilot.registry.by_name("age-recover").config_id
    shifted = TransitionRule(from_config_id=age_recover_id, to_mode="age-recover")
    pilot.sim.schedule(
        15 * interval + 1, pilot.u55c_transition.replace_rules, [shifted]
    )
    pilot.sim.schedule(
        22 * interval + 1, pilot.u55c_transition.replace_rules, original
    )
    report = pilot.run()
    assert report.delivered == 30
    assert report.unrecovered == 0
    assert pilot.u55c_transition.rewrites == 2
    return trace_digest(pilot.tracer.events())


class TestRewriteWireDigest:
    GOLDEN = {
        7: "60bda46f84caff0c09037d9bcab063cedfc3a796e08e06002053922b079f02ae",
        42: "9961948dfd3bc1bef7df7fe3ca23b20f59bbaa4fba38ce08ae2af13b10b6af20",
    }

    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_wire_digest_pinned(self, seed):
        assert _rewrite_wire_digest(seed) == self.GOLDEN[seed]
