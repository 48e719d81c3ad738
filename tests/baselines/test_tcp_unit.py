"""TCP building blocks: congestion controllers, config, tuning."""

import pytest

from repro.baselines import (
    CubicCC,
    RenoCC,
    TcpConfig,
    TcpError,
    make_congestion_control,
    tuned_100g,
    untuned,
)
from repro.netsim.units import MILLISECOND, SECOND


def config(cc="reno", mss=1000):
    return TcpConfig(mss=mss, congestion_control=cc)


class TestFactory:
    def test_known_controllers(self):
        assert isinstance(make_congestion_control(config("reno")), RenoCC)
        assert isinstance(make_congestion_control(config("cubic")), CubicCC)

    def test_unknown_rejected(self):
        with pytest.raises(TcpError):
            make_congestion_control(config("vegas"))


class TestReno:
    def test_slow_start_doubles_per_rtt(self):
        cc = RenoCC(config())
        start = cc.cwnd
        # Acking a full window in slow start grows cwnd by ~the acked amount.
        for _ in range(10):
            cc.on_ack(1000, rtt_ns=MILLISECOND, now_ns=0)
        assert cc.cwnd == start + 10 * 1000

    def test_congestion_avoidance_linear(self):
        cc = RenoCC(config())
        cc.ssthresh = cc.cwnd  # enter CA immediately
        before = cc.cwnd
        acks_per_window = before // 1000
        for _ in range(acks_per_window):
            cc.on_ack(1000, rtt_ns=MILLISECOND, now_ns=0)
        # One window of ACKs in CA adds about one MSS.
        assert before + 500 <= cc.cwnd <= before + 2000

    def test_loss_halves(self):
        cc = RenoCC(config())
        cc.cwnd = 100_000
        cc.on_enter_recovery(now_ns=0)
        assert cc.cwnd == 50_000
        assert cc.ssthresh == 50_000

    def test_timeout_resets_to_one_mss(self):
        cc = RenoCC(config())
        cc.cwnd = 100_000
        cc.on_timeout(now_ns=0)
        assert cc.cwnd == 1000
        assert cc.ssthresh == 50_000


class TestCubic:
    def test_beta_backoff(self):
        cc = CubicCC(config("cubic"))
        cc.cwnd = 100_000
        cc.on_enter_recovery(now_ns=0)
        assert cc.cwnd == 70_000  # beta = 0.7

    def test_cubic_growth_accelerates_away_from_wmax(self):
        cc = CubicCC(config("cubic"))
        cc.cwnd = 50_000
        cc.ssthresh = 10_000  # CA
        cc.on_enter_recovery(now_ns=0)
        growth_early = []
        growth_late = []
        now = 0
        for i in range(200):
            now += 10 * MILLISECOND
            before = cc.cwnd
            cc.on_ack(1000, rtt_ns=10 * MILLISECOND, now_ns=now)
            (growth_early if i < 20 else growth_late).append(cc.cwnd - before)
        # Far from the epoch start the cubic term dominates: growth rises.
        assert sum(growth_late[-20:]) > sum(growth_early)

    def test_timeout_records_wmax(self):
        cc = CubicCC(config("cubic"))
        cc.cwnd = 80_000
        cc.on_timeout(now_ns=0)
        assert cc.cwnd == 1000
        assert cc._w_max == 80_000.0


class TestTuningProfiles:
    def test_ladder_is_monotone_in_buffers(self):
        assert untuned().recv_buffer_bytes < tuned_100g().recv_buffer_bytes

    def test_jumbo_frames_on_tuned(self):
        assert untuned().mss == 1460
        assert tuned_100g().mss == 8960

    def test_100g_buffer_covers_bdp(self):
        # 100 Gb/s x 80 ms needs 1 GB of window.
        from repro.netsim.units import gbps

        bdp = gbps(100) * 80 * MILLISECOND // (8 * SECOND)
        assert tuned_100g().recv_buffer_bytes >= bdp
