"""Traffic processes: rates, shapes, determinism; waveform synthesis."""

import random

import pytest

from repro.daq import (
    BeamSpill,
    CompositeProcess,
    DaqStreamSource,
    LArTpcWaveformSynth,
    PoissonEvents,
    SteadyReadout,
    WibFrame,
    parse_message,
)
from repro.netsim import Simulator
from repro.netsim.units import MILLISECOND, SECOND, gbps


def offered_rate(process, duration_ns, seed=1):
    messages = list(process.generate(duration_ns, random.Random(seed)))
    if not messages:
        return 0.0, messages
    total_bytes = sum(m.size_bytes for m in messages)
    return total_bytes * 8 * SECOND / duration_ns, messages


class TestSteadyReadout:
    def test_rate_accurate_within_percent(self):
        process = SteadyReadout(rate_bps=gbps(1), message_bytes=8192)
        rate, _ = offered_rate(process, 10 * MILLISECOND)
        assert rate == pytest.approx(1e9, rel=0.01)

    def test_deterministic_spacing(self):
        process = SteadyReadout(rate_bps=gbps(1), message_bytes=1000)
        _, messages = offered_rate(process, MILLISECOND)
        gaps = {b.time_ns - a.time_ns for a, b in zip(messages, messages[1:])}
        assert len(gaps) == 1  # perfectly regular

    def test_validation(self):
        with pytest.raises(ValueError):
            SteadyReadout(rate_bps=0, message_bytes=1)


class TestPoissonEvents:
    def test_mean_rate_converges(self):
        process = PoissonEvents(event_rate_hz=1000, messages_per_event=2, message_bytes=500)
        rate, messages = offered_rate(process, SECOND)
        assert rate == pytest.approx(process.expected_rate_bps(), rel=0.15)

    def test_bursts_are_contiguous(self):
        process = PoissonEvents(
            event_rate_hz=10, messages_per_event=4, message_bytes=100, burst_spacing_ns=50
        )
        _, messages = offered_rate(process, SECOND)
        assert len(messages) % 4 == 0

    def test_seed_determinism(self):
        process = PoissonEvents(event_rate_hz=100, messages_per_event=1, message_bytes=10)
        a = [m.time_ns for m in process.generate(SECOND, random.Random(5))]
        b = [m.time_ns for m in process.generate(SECOND, random.Random(5))]
        assert a == b


class TestBeamSpill:
    def test_messages_only_in_spill_without_idle_rate(self):
        process = BeamSpill(
            period_ns=100 * MILLISECOND,
            spill_duration_ns=20 * MILLISECOND,
            spill_rate_bps=gbps(1),
            message_bytes=5000,
        )
        _, messages = offered_rate(process, SECOND)
        assert messages
        for m in messages:
            assert (m.time_ns % (100 * MILLISECOND)) < 20 * MILLISECOND
            assert m.kind == "spill"

    def test_duty_cycle_average(self):
        process = BeamSpill(
            period_ns=100 * MILLISECOND,
            spill_duration_ns=50 * MILLISECOND,
            spill_rate_bps=gbps(2),
            message_bytes=5000,
        )
        rate, _ = offered_rate(process, SECOND)
        assert rate == pytest.approx(1e9, rel=0.05)

    def test_spill_longer_than_period_rejected(self):
        with pytest.raises(ValueError):
            BeamSpill(period_ns=10, spill_duration_ns=20, spill_rate_bps=1, message_bytes=1)


class TestComposite:
    def test_merged_in_time_order(self):
        composite = CompositeProcess([
            SteadyReadout(rate_bps=gbps(0.5), message_bytes=4000),
            PoissonEvents(event_rate_hz=500, messages_per_event=1, message_bytes=1000),
        ])
        _, messages = offered_rate(composite, 20 * MILLISECOND)
        times = [m.time_ns for m in messages]
        assert times == sorted(times)

    def test_expected_rate_sums(self):
        a = SteadyReadout(rate_bps=1000, message_bytes=10)
        b = SteadyReadout(rate_bps=2000, message_bytes=10)
        composite = CompositeProcess([a, b])
        assert composite.expected_rate_bps() == pytest.approx(
            a.expected_rate_bps() + b.expected_rate_bps()
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CompositeProcess([])


class TestStreamSource:
    def test_pull_based_emission(self):
        sim = Simulator(seed=2)
        sent = []
        process = SteadyReadout(rate_bps=gbps(1), message_bytes=1000)
        source = DaqStreamSource(
            sim, process, lambda size, payload, kind: sent.append((sim.now, size)),
            duration_ns=MILLISECOND,
        )
        source.start()
        # Event queue stays tiny even though many messages are coming.
        assert sim.pending_events() <= 2
        sim.run()
        assert len(sent) == source.messages_emitted
        assert source.messages_emitted == 125  # 1ms / 8us per message
        assert source.bytes_emitted == 125 * 1000

    def test_start_offset(self):
        sim = Simulator(seed=2)
        sent = []
        source = DaqStreamSource(
            sim, SteadyReadout(rate_bps=gbps(1), message_bytes=1000),
            lambda size, payload, kind: sent.append(sim.now),
            duration_ns=20_000,
        )
        source.start(at_ns=5000)
        sim.run()
        assert sent[0] == 5000

    def test_payload_factory_and_completion(self):
        sim = Simulator(seed=2)
        done = []
        got = []
        source = DaqStreamSource(
            sim, SteadyReadout(rate_bps=gbps(1), message_bytes=1000),
            lambda size, payload, kind: got.append(payload),
            duration_ns=17_000,
            payload_factory=lambda m: b"\x00" * 8,
            on_complete=lambda: done.append(sim.now),
        )
        source.start()
        sim.run()
        assert all(p == b"\x00" * 8 for p in got)
        assert len(done) == 1


class TestWaveformSynth:
    def test_frames_decode_and_stay_in_range(self):
        synth = LArTpcWaveformSynth(seed=4)
        frame = synth.frame(timestamp_ticks=55, hits=2)
        decoded = WibFrame.decode(frame.encode())
        assert decoded.timestamp_ticks == 55
        assert all(0 <= c < (1 << 14) for c in decoded.adc_counts)

    def test_hits_raise_amplitude(self):
        synth = LArTpcWaveformSynth(seed=4, noise_rms=1.0, pulse_amplitude=1000)
        quiet = synth.adc_samples(hits=0)
        loud = synth.adc_samples(hits=3)
        assert loud.max() > quiet.max() + 500

    def test_message_parses_back(self):
        synth = LArTpcWaveformSynth(seed=4)
        message = synth.message(detector_id=7, slice_id=1, timestamp_ticks=9)
        header, payload = parse_message(message)
        assert header.detector_id == 7
        assert WibFrame.decode(payload).timestamp_ticks == 9

    def test_pedestal_validated(self):
        with pytest.raises(ValueError):
            LArTpcWaveformSynth(pedestal=1 << 14)
