"""Flow-completion-time extraction: percentiles, records, stragglers."""

import pytest

from repro.analysis.fct import (
    FctCollector,
    FctError,
    FlowRecord,
    interpolated_percentile,
)


class TestInterpolatedPercentile:
    def test_hand_computed_trace(self):
        # 10 samples, ranks 0..9: p50 -> rank 4.5 -> (50+60)/2,
        # p95 -> rank 8.55 -> 90 + 0.55*(100-90), p99 -> rank 8.91.
        samples = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
        assert interpolated_percentile(samples, 0.50) == pytest.approx(55.0)
        assert interpolated_percentile(samples, 0.95) == pytest.approx(95.5)
        assert interpolated_percentile(samples, 0.99) == pytest.approx(99.1)

    def test_unsorted_input_is_sorted_first(self):
        assert interpolated_percentile([30, 10, 20], 0.5) == pytest.approx(20.0)

    def test_endpoints_are_min_and_max(self):
        samples = [7, 3, 11, 5]
        assert interpolated_percentile(samples, 0.0) == 3.0
        assert interpolated_percentile(samples, 1.0) == 11.0

    def test_single_sample_every_fraction(self):
        for fraction in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert interpolated_percentile([42], fraction) == 42.0

    def test_two_samples_interpolate_linearly(self):
        assert interpolated_percentile([0, 100], 0.25) == pytest.approx(25.0)
        assert interpolated_percentile([0, 100], 0.99) == pytest.approx(99.0)

    def test_exact_rank_needs_no_interpolation(self):
        # 5 samples: p50 lands exactly on rank 2.
        assert interpolated_percentile([1, 2, 3, 4, 5], 0.5) == 3.0

    def test_empty_rejected(self):
        with pytest.raises(FctError):
            interpolated_percentile([], 0.5)

    def test_fraction_out_of_range_rejected(self):
        for fraction in (-0.01, 1.01, 50.0):
            with pytest.raises(FctError):
                interpolated_percentile([1, 2], fraction)


class TestFlowRecord:
    def test_fct_is_finish_minus_start(self):
        record = FlowRecord(flow="f", started_ns=100, finished_ns=350)
        assert record.completed
        assert record.fct_ns == 250

    def test_unfinished_fct_raises(self):
        record = FlowRecord(flow="f", started_ns=100)
        assert not record.completed
        with pytest.raises(FctError):
            _ = record.fct_ns


class TestFctCollector:
    def test_summary_over_hand_computed_flows(self):
        collector = FctCollector()
        for index, (start, end) in enumerate(
            [(0, 100), (10, 210), (20, 320), (30, 430)]
        ):
            collector.start(f"f{index}", start)
            collector.finish(f"f{index}", end)
        summary = collector.summarize()
        assert summary.flows == 4
        assert summary.completed == 4
        assert summary.unfinished == 0
        # FCTs are 100/200/300/400: p50 -> rank 1.5 -> 250.
        assert summary.p50_ns == pytest.approx(250.0)
        assert summary.p95_ns == pytest.approx(385.0)
        assert summary.p99_ns == pytest.approx(397.0)
        assert summary.mean_ns == pytest.approx(250.0)
        assert summary.max_ns == 400

    def test_single_flow_grid(self):
        collector = FctCollector()
        collector.start("only", 5)
        collector.finish("only", 905)
        summary = collector.summarize()
        assert summary.p50_ns == summary.p95_ns == summary.p99_ns == 900.0
        assert summary.max_ns == 900

    def test_never_completing_flows_reported_not_dropped(self):
        collector = FctCollector()
        collector.start("done", 0)
        collector.finish("done", 50)
        collector.start("stuck-b", 0)
        collector.start("stuck-a", 10)
        summary = collector.summarize()
        assert summary.flows == 3
        assert summary.completed == 1
        assert summary.unfinished == 2
        assert summary.unfinished_flows == ("stuck-a", "stuck-b")
        # Percentiles describe the completed set only.
        assert summary.p99_ns == 50.0

    def test_nothing_completed_yields_none_not_zero(self):
        collector = FctCollector()
        collector.start("stuck", 0)
        summary = collector.summarize()
        assert summary.completed == 0
        assert summary.p50_ns is None
        assert summary.p95_ns is None
        assert summary.p99_ns is None
        assert summary.mean_ns is None
        assert summary.max_ns is None
        metrics = summary.as_metrics()
        assert metrics["fct_p99_ns"] is None
        assert metrics["unfinished"] == 1

    def test_as_metrics_prefix(self):
        collector = FctCollector()
        collector.start("f", 0)
        collector.finish("f", 10)
        metrics = collector.summarize().as_metrics(prefix="tcp_")
        assert metrics["tcp_flows"] == 1
        assert metrics["tcp_fct_p50_ns"] == 10.0

    def test_double_start_rejected(self):
        collector = FctCollector()
        collector.start("f", 0)
        with pytest.raises(FctError):
            collector.start("f", 1)

    def test_finish_without_start_rejected(self):
        collector = FctCollector()
        with pytest.raises(FctError):
            collector.finish("ghost", 10)

    def test_finish_before_start_rejected(self):
        collector = FctCollector()
        collector.start("f", 100)
        with pytest.raises(FctError):
            collector.finish("f", 99)

    def test_duplicate_finish_is_idempotent(self):
        collector = FctCollector()
        collector.start("f", 0)
        collector.finish("f", 10)
        collector.finish("f", 99)  # late duplicate signal: ignored
        assert collector.summarize().max_ns == 10
