"""Instrument readout specs and partitioning (Req 8)."""

import pytest

from repro.daq import (
    DetectorError,
    Instrument,
    ReadoutSpec,
    dune_far_detector_module,
)


def test_raw_rate_from_electronics():
    spec = ReadoutSpec(channels=1000, sample_rate_hz=2_000_000, adc_bits=14, framing_overhead=0.0)
    assert spec.raw_rate_bps == 1000 * 2_000_000 * 14
    assert spec.wire_rate_bps == spec.raw_rate_bps


def test_framing_overhead_applied():
    spec = ReadoutSpec(channels=100, sample_rate_hz=1000, adc_bits=10, framing_overhead=0.10)
    assert spec.wire_rate_bps == round(spec.raw_rate_bps * 1.10)


def test_invalid_spec_rejected():
    with pytest.raises(DetectorError):
        ReadoutSpec(channels=0, sample_rate_hz=1, adc_bits=1)
    with pytest.raises(DetectorError):
        ReadoutSpec(channels=1, sample_rate_hz=1, adc_bits=1, framing_overhead=-0.1)


def test_dune_module_is_tbps_scale():
    module = dune_far_detector_module()
    assert 5e12 < module.wire_rate_bps < 20e12


class TestPartitioning:
    def make(self):
        return Instrument(
            name="X", detector_id=9,
            readout=ReadoutSpec(channels=1000, sample_rate_hz=100, adc_bits=8),
        )

    def test_even_partition(self):
        instrument = self.make()
        slices = instrument.partition(["run-a", "run-b", "run-c"])
        assert [s.channels for s in slices] == [333, 333, 334]
        assert slices[0].channel_lo == 0
        assert slices[-1].channel_hi == 1000
        assert [s.slice_id for s in slices] == [0, 1, 2]

    def test_slice_rate_proportional(self):
        instrument = self.make()
        instrument.partition(["a", "b"])
        assert instrument.slice_rate_bps(0) == pytest.approx(
            instrument.wire_rate_bps / 2, rel=0.01
        )

    def test_repartition_rejected(self):
        instrument = self.make()
        instrument.partition(["a"])
        with pytest.raises(DetectorError):
            instrument.partition(["b"])

    def test_unknown_slice(self):
        instrument = self.make()
        instrument.partition(["a"])
        with pytest.raises(DetectorError):
            instrument.slice_rate_bps(5)

    def test_unpartitioned_slice_rate(self):
        with pytest.raises(DetectorError):
            self.make().slice_rate_bps(0)

    def test_empty_partition(self):
        with pytest.raises(DetectorError):
            self.make().partition([])
