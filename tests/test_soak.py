"""Endurance soak harness: CI-scale run, budgets, replay determinism.

The full one-hour soak is ``repro soak`` (strict); here the
~60 s CI preset proves the harness end to end — traffic mix, churn
script, bounded-memory sampling, fleet segment — and the replay
contract: identical seeds produce identical reports and byte-identical
``BENCH_soak.json`` files.
"""

from __future__ import annotations

import pytest

from repro import soak
from repro.netsim.units import SECOND
from repro.soak import SoakBudgetError, SoakConfig, SoakReport, run_soak, write_bench


@pytest.fixture(scope="module")
def ci_report() -> SoakReport:
    return run_soak(SoakConfig.ci(), strict=True)


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
        assert run_soak(SoakConfig.ci(), strict=True) == ci_report

    def test_bench_file_deterministic(self, ci_report, tmp_path):
        cfg = SoakConfig.ci()
        first = write_bench(ci_report, cfg, tmp_path / "a")
        second = write_bench(ci_report, cfg, tmp_path / "b")
        assert first.read_bytes() == second.read_bytes()
        assert first.name == "BENCH_soak.json"


class TestBudgetEnforcement:
    def test_strict_raises_on_violated_budget(self):
        cfg = SoakConfig(
            duration_ns=5 * SECOND,
            epochs=10,
            fleet_nodes=0,
            budget_registry_series=1,  # impossible: topology alone exceeds it
        )
        with pytest.raises(SoakBudgetError, match="series"):
            run_soak(cfg, strict=True)

    def test_lenient_records_instead(self):
        cfg = SoakConfig(
            duration_ns=5 * SECOND,
            epochs=10,
            fleet_nodes=0,
            budget_registry_series=1,
        )
        report = run_soak(cfg, strict=False)
        assert report.budget_violations >= 1
        assert not report.complete


class TestWatchdogHealth:
    """PR 10: budgets are SLO rules; reports carry a HealthReport."""

    def test_clean_run_attaches_healthy_report(self, ci_report):
        health = ci_report.health
        assert health.ok
        assert health.violations == 0
        assert health.rules == 9  # one per budget check
        assert health.evaluations > 0

    def test_strict_error_carries_structured_health(self):
        cfg = SoakConfig(
            duration_ns=5 * SECOND,
            epochs=10,
            fleet_nodes=0,
            budget_registry_series=1,
        )
        with pytest.raises(SoakBudgetError) as excinfo:
            run_soak(cfg, strict=True)
        health = excinfo.value.health
        assert not health.ok
        event = next(
            e for e in health.events if e.metric == "soak_registry_series"
        )
        assert event.observed > 1
        assert event.threshold == 1
        # The legacy violation strings survive, one per health event.
        assert str(excinfo.value).count(";") == health.violations - 1

    def test_lenient_health_matches_violation_count(self):
        cfg = SoakConfig(
            duration_ns=5 * SECOND,
            epochs=10,
            fleet_nodes=0,
            budget_registry_series=1,
        )
        report = run_soak(cfg, strict=False)
        assert report.health.violations == report.budget_violations
