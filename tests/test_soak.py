"""Endurance soak harness: CI-scale run, budgets, replay determinism.

The full one-hour soak is ``repro soak``; here the
~60 s CI preset proves the harness end to end — traffic mix, churn
script, bounded-memory sampling, fleet segment — and the replay
contract: identical seeds produce identical reports and byte-identical
``BENCH_soak.json`` files.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import soak
from repro.cli import main
from repro.netsim.units import SECOND
from repro.soak import SoakConfig, SoakReport, run_soak, write_bench

#: SHA-256 of the CI preset's sorted metrics JSON: any drift in the
#: soak's traffic, churn, sampling or accounting moves it.
CI_METRICS_SHA256 = "88b79ce5623f1f14b2482d35966614067d307580c37838ed7a00e441b296aef8"


def _breaching_config() -> SoakConfig:
    return SoakConfig(
        duration_ns=5 * SECOND,
        epochs=10,
        fleet_nodes=0,
        budget_registry_series=1,  # impossible: topology alone exceeds it
    )


@pytest.fixture(scope="module")
def ci_report() -> SoakReport:
    return run_soak(SoakConfig.ci())


@pytest.fixture(scope="module")
def breached() -> SoakReport:
    return run_soak(_breaching_config())


class TestCiSoak:
    def test_complete_and_nothing_unrecovered(self, ci_report):
        assert ci_report.complete
        assert ci_report.unrecovered == 0
        assert ci_report.fleet_unrecovered == 0
        assert ci_report.budget_violations == 0
        assert ci_report.delivered == ci_report.messages_sent

    def test_churn_actually_churned(self, ci_report):
        assert ci_report.faults_fired == ci_report.faults_injected > 0
        assert ci_report.lost_down + ci_report.lost_model > 0
        assert ci_report.mode_degradations > 0
        assert ci_report.mode_upgrades == ci_report.mode_degradations
        assert ci_report.degraded_final == 0
        assert ci_report.mode_rewrites == 8
        assert ci_report.link_rate_changes > 0
        assert ci_report.ge_drifts == 2
        assert ci_report.fleet_flaps == 3

    def test_memory_budgets_held(self, ci_report):
        assert ci_report.peak_retx_occupancy_pct <= soak.BUDGET_RETX_OCCUPANCY_PCT
        assert ci_report.peak_guard_entries <= soak.BUDGET_GUARD_ENTRIES
        assert ci_report.peak_trace_events <= soak.BUDGET_TRACE_EVENTS
        assert ci_report.peak_registry_series <= SoakConfig.ci().budget_registry_series
        assert ci_report.growth_retx_bytes <= soak.BUDGET_GROWTH_RETX_BYTES
        assert ci_report.growth_guard_entries <= soak.BUDGET_GROWTH
        assert ci_report.growth_trace_events <= soak.BUDGET_GROWTH_TRACE_EVENTS
        assert ci_report.growth_registry_series <= soak.BUDGET_GROWTH

    def test_replay_is_byte_identical(self, ci_report):
        assert run_soak(SoakConfig.ci()) == ci_report

    def test_ci_preset_metrics_pinned(self, ci_report):
        blob = json.dumps(ci_report.metrics(), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == CI_METRICS_SHA256

    def test_bench_file_deterministic(self, ci_report, tmp_path):
        cfg = SoakConfig.ci()
        first = write_bench(ci_report, cfg, tmp_path / "a")
        second = write_bench(ci_report, cfg, tmp_path / "b")
        assert first.read_bytes() == second.read_bytes()
        assert first.name == "BENCH_soak.json"


class TestBudgetEnforcement:
    def test_cli_exits_1_on_violated_budget(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr(
            SoakConfig, "ci", classmethod(lambda cls, seed=42: _breaching_config())
        )
        assert main(["soak", "--ci", "--out-dir", str(tmp_path)]) == 1
        assert "VIOLATION soak_registry_series max <= 1" in capsys.readouterr().out

    def test_lenient_records_instead(self, breached):
        assert breached.budget_violations >= 1
        assert not breached.complete


class TestWatchdogHealth:
    """Budgets are SLO rules; reports carry a HealthReport."""

    def test_clean_run_attaches_healthy_report(self, ci_report):
        health = ci_report.health
        assert health.ok
        assert health.violations == 0
        assert health.rules == 9  # one per budget check
        assert health.evaluations > 0

    def test_breach_is_a_structured_health_event(self, breached):
        health = breached.health
        assert not health.ok
        event = next(
            e for e in health.events if e.metric == "soak_registry_series"
        )
        assert event.observed > 1
        assert event.threshold == 1

    def test_lenient_health_matches_violation_count(self, breached):
        assert breached.health.violations == breached.budget_violations
