"""The assembled Fig. 4 pilot: mode progression, recovery, timeliness."""

import pytest

from repro.core import Feature
from repro.dataplane import PilotConfig, PilotTestbed
from repro.netsim import Simulator, units
from repro.netsim.units import MILLISECOND


def run_pilot(messages=200, **cfg_kwargs):
    config = PilotConfig(**cfg_kwargs)
    pilot = PilotTestbed(sim=Simulator(seed=21), config=config)
    pilot.send_stream(messages, payload_size=4000, interval_ns=2000)
    report = pilot.run()
    return pilot, report


class TestLossFree:
    def test_everything_arrives_exactly_once(self):
        _pilot, report = run_pilot(200)
        assert report.messages_sent == 200
        assert report.dtn1_relayed == 200
        assert report.delivered == 200
        assert report.duplicates == 0
        assert report.naks_sent == 0
        assert report.complete

    def test_mode_progression_counts(self):
        _pilot, report = run_pilot(150)
        assert report.mode_transitions_u280 == 150  # 0 -> 1 at the U280
        assert report.mode_transitions_u55c == 150  # 1 -> 2 at the U55C
        assert report.age_updates_tofino == 150

    def test_buffer_holds_the_stream(self):
        pilot, report = run_pilot(100)
        assert len(pilot.buffer) == 100
        assert pilot.u280.stats.mirrored_to_buffer == 100

    def test_headers_arrive_in_mode2(self):
        config = PilotConfig()
        pilot = PilotTestbed(sim=Simulator(seed=3), config=config)
        seen = []
        pilot.dtn2_receiver.on_message = lambda p, h: seen.append(h)
        pilot.send_stream(5, payload_size=1000, interval_ns=1000)
        pilot.run()
        header = seen[0]
        assert header.config_id == 2
        assert header.features & Feature.TIMELINESS
        assert header.features & Feature.AGE_TRACKING
        assert header.features & Feature.SEQUENCED
        assert header.buffer_addr == pilot.u280.ip
        assert header.age_ns > 0

    def test_egress_logs_a_row_per_delivery_split_by_flow(self):
        pilot = PilotTestbed(sim=Simulator(seed=21), config=PilotConfig(flows=2))
        pilot.send_split(60, 4000, 2000)
        report = pilot.run()
        rows = list(pilot.delivered_messages)
        assert len(rows) == report.delivered == 60
        assert {size for _time, size in rows} == {4000}
        assert [time for time, _latency in pilot.dtn2_receiver.delivery_log] == [
            time for time, _size in rows]
        per_flow = [list(pilot.delivered_by_flow[fid]) for fid in (0, 1)]
        assert [len(flow) for flow in per_flow] == [30, 30]
        assert sorted(per_flow[0] + per_flow[1]) == rows

    def test_latency_tracks_wan_delay(self):
        _pilot, report = run_pilot(50, wan_delay_ns=10 * MILLISECOND)
        median = sorted(report.delivery_latencies_ns)[len(report.delivery_latencies_ns) // 2]
        assert 10 * MILLISECOND < median < 11 * MILLISECOND


class TestLossRecovery:
    def test_full_recovery_from_dtn1_buffer(self):
        pilot, report = run_pilot(500, wan_loss_rate=0.03, wan_delay_ns=5 * MILLISECOND)
        assert report.complete
        assert report.delivered == 500
        assert report.naks_sent > 0
        # Every NAK that survived the (lossy) WAN was served by the U280.
        assert 1 <= report.naks_served <= report.naks_sent
        assert report.retransmissions >= report.unrecovered == 0

    def test_sensor_never_asked_to_retransmit(self):
        """The whole point of the nearest buffer: recovery never reaches
        the sensor, whose data is gone (mode 0 is unreliable)."""
        pilot, report = run_pilot(300, wan_loss_rate=0.05, wan_delay_ns=2 * MILLISECOND)
        assert report.complete
        assert pilot.sensor_stack.buffer is None
        assert pilot.sensor.rx_unhandled == 0  # nothing ever flowed back

    def test_recovery_latency_is_wan_rtt_not_path_rtt(self):
        """Recovered messages arrive roughly one buffer-RTT after their
        first-chance arrival time, not a full end-to-end handshake."""
        pilot, report = run_pilot(
            400, wan_loss_rate=0.04, wan_delay_ns=10 * MILLISECOND,
            deadline_offset_ns=100 * MILLISECOND,
        )
        assert report.complete
        lat = sorted(report.delivery_latencies_ns)
        p50 = lat[len(lat) // 2]
        worst = lat[-1]
        # One-way ~10 ms; recovery adds ~2x10 ms NAK round trip plus
        # reorder wait; nothing should need more than ~4 RTTs.
        assert worst < p50 + 8 * 10 * MILLISECOND


class TestTimeliness:
    def test_aged_flag_set_when_budget_small(self):
        _pilot, report = run_pilot(
            100, age_budget_ns=1 * MILLISECOND, wan_delay_ns=10 * MILLISECOND
        )
        assert report.aged_packets == 100

    def test_deadline_misses_counted_at_destination(self):
        # Deadline shorter than the U55C->DTN2 leg can never be met...
        _pilot, report = run_pilot(
            100, deadline_offset_ns=0, wan_delay_ns=1 * MILLISECOND
        )
        assert report.deadline_misses == 100
        assert report.deadline_ok == 0

    def test_deadlines_met_with_headroom(self):
        _pilot, report = run_pilot(
            100, deadline_offset_ns=50 * MILLISECOND, wan_delay_ns=1 * MILLISECOND
        )
        assert report.deadline_ok == 100
        assert report.deadline_misses == 0

    def test_miss_reports_reach_dtn1(self):
        config = PilotConfig(deadline_offset_ns=0, wan_delay_ns=1 * MILLISECOND)
        pilot = PilotTestbed(sim=Simulator(seed=5), config=config)
        pilot.send_stream(20, payload_size=500, interval_ns=1000)
        pilot.run()
        assert len(pilot.dtn1_stack.deadline_misses) == 20


class TestBufferWiring:
    @pytest.mark.parametrize("buffers, directory, failover", [
        ("static", False, False), ("directory", True, False), ("failover", True, True),
    ])
    def test_each_wiring_builds_its_buffers(self, buffers, directory, failover):
        pilot = PilotTestbed(sim=Simulator(seed=1), config=PilotConfig(buffers=buffers))
        assert (pilot.directory is not None) == directory
        assert (pilot.dtn1_buffer is not None) == failover
        # Outside the static wiring, DTN 1 sequences the reliable leg.
        assert pilot.dtn1_sender.mode.name == ("identify" if buffers == "static" else "age-recover")

    def test_unknown_wiring_rejected(self):
        with pytest.raises(ValueError, match="buffers"):
            PilotConfig(buffers="mirror")
