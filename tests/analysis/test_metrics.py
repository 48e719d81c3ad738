"""Metrics: percentiles, latency summaries, fairness."""

import pytest
from hypothesis import given, strategies as st

from repro.analysis import LatencySummary, percentile
from repro.integration import jain_fairness


class TestPercentile:
    def test_nearest_rank(self):
        samples = list(range(1, 101))
        assert percentile(samples, 0.50) == 50
        assert percentile(samples, 0.99) == 99
        assert percentile(samples, 1.0) == 100
        assert percentile(samples, 0.0) == 1

    def test_value_always_from_samples(self):
        samples = [3, 1, 4, 1, 5]
        for f in (0.1, 0.5, 0.9):
            assert percentile(samples, f) in samples

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_fraction_range(self):
        with pytest.raises(ValueError):
            percentile([1], 1.5)

    @given(st.lists(st.integers(0, 10**9), min_size=1), st.floats(0, 1))
    def test_monotone_in_fraction(self, samples, f):
        assert percentile(samples, f) <= percentile(samples, 1.0)
        assert percentile(samples, f) >= percentile(samples, 0.0)


class TestLatencySummary:
    def test_summary_fields(self):
        summary = LatencySummary.of([10, 20, 30, 40, 50])
        assert summary.count == 5
        assert summary.min_ns == 10
        assert summary.max_ns == 50
        assert summary.p50_ns == 30
        assert summary.mean_ns == 30

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LatencySummary.of([])


class TestFairness:
    def test_equal_rates_perfect(self):
        assert jain_fairness([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_starved_flow_unfair(self):
        assert jain_fairness([10.0, 0.0]) == pytest.approx(0.5)

    def test_all_zero(self):
        assert jain_fairness([0.0, 0.0]) == 1.0
