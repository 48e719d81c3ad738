"""DAQ workload generators.

Two layers:

- **traffic processes** (:class:`TrafficProcess` subclasses) generate
  the *timing and sizing* of DAQ messages: steady full-stream readout,
  Poisson physics events (cosmics, radiologicals), accelerator beam
  spills, and supernova bursts. These reproduce the statistical shape
  of "elephant flows with a regular shape (size and arrival rate)"
  (§1) plus the rare trigger-correlated bursts DUNE cares about.
- **payload synthesis** (:class:`LArTpcWaveformSynth`) produces
  byte-real LArTPC frames — pedestal + Gaussian electronics noise +
  drifting-charge pulses packed as 14-bit ADC counts — standing in for
  the ICEBERG samples used by the pilot (§5.4).

A :class:`DaqStreamSource` pumps a process into any send callable
inside a simulation, scheduling messages one at a time (pull-based, so
multi-million-message runs do not preload the event queue).
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from ..netsim.engine import Simulator
from ..netsim.units import SECOND
from .formats import (
    DaqFrameHeader,
    PayloadKind,
    WIB_ADC_BITS,
    WIB_CHANNELS,
    WibFrame,
    frame_message,
)


@dataclass(frozen=True)
class DaqMessage:
    """One DAQ message: when it leaves the sensor, and how big it is."""

    time_ns: int
    size_bytes: int
    kind: str = "readout"


class TrafficProcess:
    """Base: yields :class:`DaqMessage` in non-decreasing time order."""

    def generate(self, duration_ns: int, rng: random.Random) -> Iterator[DaqMessage]:
        raise NotImplementedError

    def expected_rate_bps(self) -> float:
        """Long-run average offered load (bits/s), for capacity planning."""
        raise NotImplementedError


class SteadyReadout(TrafficProcess):
    """Continuous full-stream readout at a fixed rate (the elephant).

    Deterministic inter-message spacing: DAQ readout is clock-driven,
    not bursty — "a maximum number of events would be expected to be
    observed in a given time window" (§2).
    """

    def __init__(self, rate_bps: int, message_bytes: int) -> None:
        if rate_bps <= 0 or message_bytes <= 0:
            raise ValueError("rate and message size must be positive")
        self.rate_bps = rate_bps
        self.message_bytes = message_bytes
        self.interval_ns = max(1, (message_bytes * 8 * SECOND) // rate_bps)

    def generate(self, duration_ns: int, rng: random.Random) -> Iterator[DaqMessage]:
        t = 0
        while t < duration_ns:
            yield DaqMessage(time_ns=t, size_bytes=self.message_bytes)
            t += self.interval_ns

    def expected_rate_bps(self) -> float:
        return self.message_bytes * 8 * SECOND / self.interval_ns


class PoissonEvents(TrafficProcess):
    """Physics events arriving as a Poisson process.

    Each event (a cosmic-ray track, a radiological decay) triggers a
    short burst of ``messages_per_event`` back-to-back messages.
    """

    def __init__(
        self,
        event_rate_hz: float,
        messages_per_event: int,
        message_bytes: int,
        burst_spacing_ns: int = 1_000,
        kind: str = "event",
    ) -> None:
        if event_rate_hz <= 0:
            raise ValueError("event rate must be positive")
        self.event_rate_hz = event_rate_hz
        self.messages_per_event = messages_per_event
        self.message_bytes = message_bytes
        self.burst_spacing_ns = burst_spacing_ns
        self.kind = kind

    def generate(self, duration_ns: int, rng: random.Random) -> Iterator[DaqMessage]:
        t = 0.0
        mean_gap_ns = SECOND / self.event_rate_hz
        while True:
            t += rng.expovariate(1.0) * mean_gap_ns
            if t >= duration_ns:
                return
            base = int(t)
            for i in range(self.messages_per_event):
                yield DaqMessage(
                    time_ns=base + i * self.burst_spacing_ns,
                    size_bytes=self.message_bytes,
                    kind=self.kind,
                )

    def expected_rate_bps(self) -> float:
        return (
            self.event_rate_hz * self.messages_per_event * self.message_bytes * 8
        )


class BeamSpill(TrafficProcess):
    """Accelerator-driven readout: periodic spills of intense data.

    Models experiments like Mu2e/CMS where the accelerator delivers
    beam in a fixed supercycle; during the spill the detector reads out
    at ``spill_rate_bps``, between spills only ``idle_rate_bps``.
    """

    def __init__(
        self,
        period_ns: int,
        spill_duration_ns: int,
        spill_rate_bps: int,
        message_bytes: int,
        idle_rate_bps: int = 0,
    ) -> None:
        if spill_duration_ns > period_ns:
            raise ValueError("spill cannot be longer than its period")
        self.period_ns = period_ns
        self.spill_duration_ns = spill_duration_ns
        self.spill_rate_bps = spill_rate_bps
        self.idle_rate_bps = idle_rate_bps
        self.message_bytes = message_bytes

    def generate(self, duration_ns: int, rng: random.Random) -> Iterator[DaqMessage]:
        message_bits = self.message_bytes * 8
        spill_gap = max(1, (message_bits * SECOND) // self.spill_rate_bps)
        idle_gap = (
            max(1, (message_bits * SECOND) // self.idle_rate_bps)
            if self.idle_rate_bps
            else None
        )
        t = 0
        while t < duration_ns:
            phase = t % self.period_ns
            in_spill = phase < self.spill_duration_ns
            if in_spill:
                yield DaqMessage(time_ns=t, size_bytes=self.message_bytes, kind="spill")
                t += spill_gap
            elif idle_gap is not None:
                yield DaqMessage(time_ns=t, size_bytes=self.message_bytes, kind="idle")
                t += min(idle_gap, self.period_ns - phase)
            else:
                t += self.period_ns - phase

    def expected_rate_bps(self) -> float:
        duty = self.spill_duration_ns / self.period_ns
        return self.spill_rate_bps * duty + self.idle_rate_bps * (1 - duty)


class SupernovaBurst(TrafficProcess):
    """A supernova burst trigger: sustained full-rate readout window.

    When DUNE sees a neutrino burst it records the *entire* detector
    stream for an extended window — the integration driver of §3
    (Req 10): this data must move promptly because it also steers
    other instruments.
    """

    def __init__(
        self,
        start_ns: int,
        burst_duration_ns: int,
        burst_rate_bps: int,
        message_bytes: int,
    ) -> None:
        self.start_ns = start_ns
        self.burst_duration_ns = burst_duration_ns
        self.burst_rate_bps = burst_rate_bps
        self.message_bytes = message_bytes

    def generate(self, duration_ns: int, rng: random.Random) -> Iterator[DaqMessage]:
        gap = max(1, (self.message_bytes * 8 * SECOND) // self.burst_rate_bps)
        t = self.start_ns
        end = min(self.start_ns + self.burst_duration_ns, duration_ns)
        while t < end:
            yield DaqMessage(time_ns=t, size_bytes=self.message_bytes, kind="snb")
            t += gap

    def expected_rate_bps(self) -> float:
        # Long-run average over the generation window is scenario
        # dependent; report the in-burst rate.
        return float(self.burst_rate_bps)


class CompositeProcess(TrafficProcess):
    """Time-merge of several processes (e.g. steady readout + cosmics)."""

    def __init__(self, processes: list[TrafficProcess]) -> None:
        if not processes:
            raise ValueError("need at least one process")
        self.processes = processes

    def generate(self, duration_ns: int, rng: random.Random) -> Iterator[DaqMessage]:
        # Give each sub-process an independent but derived RNG so the
        # composite stays deterministic regardless of interleaving.
        streams = [
            p.generate(duration_ns, random.Random(rng.random()))
            for p in self.processes
        ]
        return heapq.merge(*streams, key=lambda m: m.time_ns)

    def expected_rate_bps(self) -> float:
        return sum(p.expected_rate_bps() for p in self.processes)


# ---------------------------------------------------------------------------
# Payload synthesis
# ---------------------------------------------------------------------------


class LArTpcWaveformSynth:
    """Synthesizes byte-real LArTPC WIB frames.

    Channels idle at a pedestal with Gaussian electronics noise; a
    physics "hit" adds a bipolar drift pulse across a few neighboring
    channels — the classic induction-wire signature. The output packs
    into 14-bit ADC counts exactly like :class:`WibFrame` expects.
    """

    def __init__(
        self,
        pedestal: int = 2300,
        noise_rms: float = 4.0,
        pulse_amplitude: int = 600,
        seed: int = 0,
    ) -> None:
        if not 0 < pedestal < (1 << WIB_ADC_BITS):
            raise ValueError("pedestal outside ADC range")
        self.pedestal = pedestal
        self.noise_rms = noise_rms
        self.pulse_amplitude = pulse_amplitude
        # The only numpy user in this module, and no simulated run
        # builds one: importing it here keeps ~100 ms and ~12 MiB off
        # every `repro` start (repro.fleet imports this module).
        import numpy as np

        self._np = np
        self._rng = np.random.default_rng(seed)

    def adc_samples(self, hits: int = 0) -> np.ndarray:
        """One time-slice of ADC counts across all WIB channels."""
        np = self._np
        samples = self._rng.normal(self.pedestal, self.noise_rms, WIB_CHANNELS)
        for _ in range(hits):
            center = int(self._rng.integers(2, WIB_CHANNELS - 2))
            spread = self._rng.normal(0, 1.0, 5)
            kernel = self.pulse_amplitude * np.array([0.2, 0.6, 1.0, 0.6, 0.2])
            samples[center - 2 : center + 3] += kernel + spread
        return np.clip(np.rint(samples), 0, (1 << WIB_ADC_BITS) - 1).astype(np.int64)

    def frame(
        self, timestamp_ticks: int, crate: int = 0, slot: int = 0, fiber: int = 0, hits: int = 0
    ) -> WibFrame:
        counts = tuple(int(v) for v in self.adc_samples(hits=hits))
        return WibFrame(
            crate=crate, slot=slot, fiber=fiber, timestamp_ticks=timestamp_ticks, adc_counts=counts
        )

    def message(
        self,
        detector_id: int,
        slice_id: int,
        timestamp_ticks: int,
        run_number: int = 1,
        hits: int = 0,
    ) -> bytes:
        """A full DAQ message: top-level header + WIB frame payload."""
        payload = self.frame(timestamp_ticks, hits=hits).encode()
        header = DaqFrameHeader(
            detector_id=detector_id,
            slice_id=slice_id,
            timestamp_ticks=timestamp_ticks,
            run_number=run_number,
            payload_kind=PayloadKind.WIB_FRAME,
            payload_bytes=len(payload),
        )
        return frame_message(header, payload)


# ---------------------------------------------------------------------------
# Driving a simulation
# ---------------------------------------------------------------------------


SendFn = Callable[[int, bytes | None, str], None]


class DaqStreamSource:
    """Pumps a traffic process into a simulation, one message at a time.

    ``send(size_bytes, payload, kind)`` is invoked at each message's
    scheduled instant. Messages are scheduled lazily (pull-based), so
    arbitrarily long runs keep the event queue small.
    """

    def __init__(
        self,
        sim: Simulator,
        process: TrafficProcess,
        send: SendFn,
        duration_ns: int,
        payload_factory: Callable[[DaqMessage], bytes] | None = None,
        rng_name: str = "daq-source",
        on_complete: Callable[[], None] | None = None,
    ) -> None:
        self.sim = sim
        self.process = process
        self.send = send
        self.duration_ns = duration_ns
        self.payload_factory = payload_factory
        self.on_complete = on_complete
        self.messages_emitted = 0
        self.bytes_emitted = 0
        self._iterator: Iterator[DaqMessage] | None = None
        self._rng = sim.rng(rng_name)

    def start(self, at_ns: int = 0) -> None:
        """Begin emitting at absolute time ``at_ns``."""
        self._iterator = self.process.generate(self.duration_ns, self._rng)
        self._origin = at_ns
        self._advance()

    def _advance(self) -> None:
        assert self._iterator is not None
        try:
            message = next(self._iterator)
        except StopIteration:
            if self.on_complete is not None:
                self.on_complete()
            return
        self.sim.schedule_at(
            max(self.sim.now, self._origin + message.time_ns), self._emit, message
        )

    def _emit(self, message: DaqMessage) -> None:
        payload = self.payload_factory(message) if self.payload_factory else None
        self.send(message.size_bytes, payload, message.kind)
        self.messages_emitted += 1
        self.bytes_emitted += message.size_bytes
        self._advance()


def plan_capacity(process: TrafficProcess, headroom: float = 1.2) -> int:
    """Capacity-plan a link for a process (paper: DAQ demands "can be
    planned in advance", §4.2). Returns bits/s with headroom."""
    return math.ceil(process.expected_rate_bps() * headroom)
