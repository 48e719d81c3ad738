"""Detector and instrument-partitioning models.

An :class:`Instrument` describes a physical detector's readout: how
many channels, sampled how fast, at what ADC depth — which fixes its
raw DAQ rate ("The DAQ rate is based on the precision of the
instrument's sensors, the frequency and precision of the
analogue-to-digital conversion", §2). Instruments can be partitioned
into :class:`InstrumentSlice` s for simultaneous independent
experiments (Req 8); each slice maps to a distinct MMT slice id.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class DetectorError(ValueError):
    """Raised for inconsistent instrument definitions."""


@dataclass(frozen=True)
class ReadoutSpec:
    """Electronics parameters that fix an instrument's raw data rate."""

    channels: int
    sample_rate_hz: int
    adc_bits: int
    #: Framing/metadata overhead as a fraction of raw ADC volume.
    framing_overhead: float = 0.05

    def __post_init__(self) -> None:
        if self.channels <= 0 or self.sample_rate_hz <= 0 or self.adc_bits <= 0:
            raise DetectorError("channels, sample rate, and ADC bits must be positive")
        if self.framing_overhead < 0:
            raise DetectorError("framing overhead cannot be negative")

    @property
    def raw_rate_bps(self) -> int:
        """Raw digitization rate in bits per second (before framing)."""
        return self.channels * self.sample_rate_hz * self.adc_bits

    @property
    def wire_rate_bps(self) -> int:
        """Rate including framing overhead — what the DAQ network carries."""
        return round(self.raw_rate_bps * (1.0 + self.framing_overhead))


@dataclass
class InstrumentSlice:
    """A partition of an instrument assigned to one experiment run."""

    slice_id: int
    name: str
    channel_lo: int
    channel_hi: int  # exclusive

    @property
    def channels(self) -> int:
        return self.channel_hi - self.channel_lo


@dataclass
class Instrument:
    """A physical instrument with a readout spec and optional slicing."""

    name: str
    detector_id: int
    readout: ReadoutSpec
    slices: list[InstrumentSlice] = field(default_factory=list)

    def partition(self, names: list[str]) -> list[InstrumentSlice]:
        """Split the channel range evenly into named slices (Req 8)."""
        if not names:
            raise DetectorError("need at least one slice name")
        if self.slices:
            raise DetectorError(f"{self.name} is already partitioned")
        channels = self.readout.channels
        if channels < len(names):
            raise DetectorError("more slices than channels")
        per_slice = channels // len(names)
        slices = []
        for i, slice_name in enumerate(names):
            lo = i * per_slice
            hi = channels if i == len(names) - 1 else lo + per_slice
            slices.append(InstrumentSlice(slice_id=i, name=slice_name, channel_lo=lo, channel_hi=hi))
        self.slices = slices
        return slices

    def slice_rate_bps(self, slice_id: int) -> int:
        """The wire rate attributable to one slice."""
        if not self.slices:
            raise DetectorError(f"{self.name} is not partitioned")
        target = next((s for s in self.slices if s.slice_id == slice_id), None)
        if target is None:
            raise DetectorError(f"no slice {slice_id} in {self.name}")
        fraction = target.channels / self.readout.channels
        return round(self.readout.wire_rate_bps * fraction)

    @property
    def wire_rate_bps(self) -> int:
        return self.readout.wire_rate_bps


def dune_far_detector_module() -> Instrument:
    """One DUNE far-detector module, LArTPC readout.

    ~384k channels at 2 MHz, 14-bit ADCs → ~10.7 Tbps raw; four modules
    plus photon systems take the experiment to the ~120 Tbps of
    Table 1.
    """
    return Instrument(
        name="DUNE-FD1",
        detector_id=1,
        readout=ReadoutSpec(channels=384_000, sample_rate_hz=2_000_000, adc_bits=14),
    )
