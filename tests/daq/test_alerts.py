"""Alert streams and the supernova burst trigger."""

import random

import pytest

from repro.daq import (
    BurstDetector,
    RUBIN_ALERT_BURST_BPS,
    SupernovaAlert,
    rubin_alert_stream,
)
from repro.netsim.units import MILLISECOND, SECOND


class TestRubinStreams:
    def test_alert_bursts_peak_near_5_4_gbps(self):
        process = rubin_alert_stream()
        messages = list(process.generate(120 * SECOND, random.Random(8)))
        assert messages, "two minutes should include alert bursts"
        # Within a burst, spacing implies the 5.4 Gb/s peak rate.
        gaps = [
            b.time_ns - a.time_ns
            for a, b in zip(messages, messages[1:])
            if b.time_ns - a.time_ns < MILLISECOND
        ]
        assert gaps, "bursts must be tightly spaced"
        peak_rate = messages[0].size_bytes * 8 * SECOND / min(gaps)
        assert peak_rate == pytest.approx(RUBIN_ALERT_BURST_BPS, rel=0.2)

class TestSupernovaAlert:
    def test_roundtrip(self):
        alert = SupernovaAlert(
            detection_time_ns=123,
            right_ascension_mdeg=-45_000,
            declination_mdeg=89_999,
            confidence_pct=97,
            neutrino_count=4321,
        )
        assert SupernovaAlert.decode(alert.encode()) == alert

    def test_compactness(self):
        assert SupernovaAlert.SIZE <= 32  # must fit any MTU trivially

    def test_truncation_rejected(self):
        with pytest.raises(ValueError):
            SupernovaAlert.decode(b"\x00" * 4)


class TestBurstDetector:
    def test_fires_at_threshold_within_window(self):
        detector = BurstDetector(window_ns=1000, threshold=3)
        assert not detector.observe(0)
        assert not detector.observe(100)
        assert detector.observe(200)
        assert detector.triggered_at == 200

    def test_slow_background_never_fires(self):
        detector = BurstDetector(window_ns=1000, threshold=3)
        for t in range(0, 100_000, 2000):
            assert not detector.observe(t)
        assert detector.triggered_at is None

    def test_window_slides(self):
        detector = BurstDetector(window_ns=1000, threshold=3)
        detector.observe(0)
        detector.observe(100)
        # Both early candidates have left the window by t=1500, so it
        # takes three *fresh* candidates to fire.
        assert not detector.observe(1500)
        assert not detector.observe(1550)
        assert detector.observe(1650)

    def test_fires_once(self):
        detector = BurstDetector(window_ns=1000, threshold=2)
        detector.observe(0)
        assert detector.observe(1)
        assert not detector.observe(2)
        assert detector.triggered_at == 1
