"""Segment-local (hop-by-hop) recovery."""

import pytest

from repro.core import MmtStack, MsgType, ReceiverConfig, make_experiment_id
from repro.dataplane import (
    AgeUpdateProgram,
    BufferTapProgram,
    ModeTransitionProgram,
    ProgrammableElement,
    SegmentRecoveryProgram,
    TransitionRule,
)
from repro.core.modes import pilot_registry
from repro.netsim import Simulator, Topology, units

EXP = 18
EXP_ID = make_experiment_id(EXP)


def build(sim, mid_loss=0.05, last_loss=0.0, segment_recovery=True, patience_ms=25):
    """src - e1(buffer, transitions) ==lossy== e2(buffer, repair) - dst."""
    topo = Topology(sim)
    src = topo.add_host("src", ip="10.0.0.2")
    dst = topo.add_host("dst", ip="10.0.9.2")
    e1 = ProgrammableElement(sim, "e1", mac=topo.allocate_mac(), ip="10.0.1.1")
    e2 = ProgrammableElement(sim, "e2", mac=topo.allocate_mac(), ip="10.0.2.1")
    topo.add(e1)
    topo.add(e2)
    topo.connect(src, e1, units.gbps(10), units.milliseconds(1))
    topo.connect(e1, e2, units.gbps(10), units.milliseconds(5), loss_rate=mid_loss)
    topo.connect(e2, dst, units.gbps(10), units.milliseconds(1), loss_rate=last_loss)
    topo.install_routes()

    registry = pilot_registry()
    ModeTransitionProgram(registry, [
        TransitionRule(from_config_id=0, to_mode="age-recover",
                       buffer_addr=e1.ip, age_budget_ns=units.seconds(1)),
    ]).install(e1)
    e1.attach_buffer(256 * 1024 * 1024)
    BufferTapProgram(buffer_addr=e1.ip).install(e1)
    AgeUpdateProgram().install(e1)

    e2.attach_buffer(256 * 1024 * 1024)
    e2.nak_fallback_addr = e1.ip  # chained buffers, as placement wires them
    BufferTapProgram(buffer_addr=e2.ip).install(e2)
    recovery = None
    if segment_recovery:
        recovery = SegmentRecoveryProgram(
            upstream_buffer_addr=e1.ip,
            config=ReceiverConfig(
                reorder_wait_ns=units.microseconds(200),
                # First retry after initial_rtt x RTT_SAFETY = 12 ms, just
                # over the 10 ms e2<->e1 round trip.
                initial_rtt_ns=units.milliseconds(6),
            ),
        )
        recovery.install(e2)

    src_stack = MmtStack(src, registry)
    dst_stack = MmtStack(dst, registry)
    got = []
    # A *patient* receiver: with in-network repair deployed, the
    # destination defers its own NAKs long enough for the segment to
    # heal itself (25 ms > one e2->e1 repair round trip).
    receiver = dst_stack.bind_receiver(
        EXP, on_message=lambda p, h: got.append(h),
        config=ReceiverConfig(
            initial_rtt_ns=units.milliseconds(6),
            reorder_wait_ns=units.milliseconds(patience_ms),
        ),
    )
    sender = src_stack.create_sender(experiment_id=EXP_ID, mode="identify", dst_ip=dst.ip)
    return topo, src, dst, e1, e2, recovery, sender, receiver, got


def run_stream(sim, sender, receiver, count=400):
    for i in range(count):
        sim.schedule(i * 20_000, sender.send, 1500)
    sim.run()
    receiver.request_missing(EXP_ID, count)
    sim.run()


class TestSegmentRepair:
    def test_mid_segment_losses_healed_in_network(self, sim):
        _topo, _src, _dst, e1, e2, recovery, sender, receiver, got = build(sim)
        run_stream(sim, sender, receiver)
        assert {h.seq for h in got} == set(range(400))
        assert recovery.stats.gaps_detected > 0
        assert recovery.stats.naks_sent > 0
        assert recovery.stats.repairs_forwarded > 0
        # The element repaired upstream losses in-network; the receiver
        # only ever NAKs for the tail (end-of-run reconciliation),
        # never for mid-stream gaps.
        assert receiver.stats.naks_sent <= 3
        assert receiver.stats.unrecovered == 0

    def test_destination_latency_better_with_segment_repair(self):
        """In-network repair saves the destination's NAK round trip for
        upstream losses: worst-case delivery latency shrinks."""
        def worst_latency(segment_recovery):
            sim = Simulator(seed=88)
            _t, _s, _d, _e1, _e2, _rec, sender, receiver, _got = build(
                sim, mid_loss=0.08, segment_recovery=segment_recovery
            )
            run_stream(sim, sender, receiver, count=500)
            assert receiver.stats.unrecovered == 0
            return max(lat for _t2, lat in receiver.delivery_log)

        assert worst_latency(True) < worst_latency(False)

    def test_repairs_cached_locally_for_downstream(self, sim):
        """A repaired packet is stored at the repairing element, so a
        *later* downstream loss of the same seq recovers from there."""
        _topo, _src, _dst, e1, e2, recovery, sender, receiver, got = build(sim)
        run_stream(sim, sender, receiver, count=200)
        # Every seq e2 repaired and forwarded is now in e2's buffer.
        repaired = [h.seq for h in got if h.msg_type == MsgType.RETX_DATA]
        assert len(repaired) == recovery.stats.repairs_forwarded > 0
        for seq in repaired:
            assert e2.buffer.holds(EXP_ID, seq)

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_each_loss_is_repaired_about_once(self, seed):
        """Retries are paced per sequence number: the upstream buffer
        resends about one packet per loss (a retry only when a NAK or
        repair is itself lost), the destination sees no duplicate, and
        nothing repaired is ever counted as given up."""
        sim = Simulator(seed=seed)
        # A receiver's patience runs from its flow's *first* open gap, so
        # to stay silent it has to outlast the 8 ms stream plus one
        # retried repair (12 ms retry + 10 ms round trip).
        topo, _src, _dst, e1, _e2, recovery, sender, receiver, got = build(sim, patience_ms=35)
        run_stream(sim, sender, receiver)
        lost = sum(link.stats.lost_random for link in topo.links)
        assert lost > 0
        assert {h.seq for h in got} == set(range(400))
        assert receiver.stats.duplicates == 0
        assert recovery.stats.unrecovered == 0
        assert e1.stats.nak_packets_resent <= 1.5 * lost
        # A lost NAK or repair costs one retry on top of the 7 ms path,
        # not a doubled wait (which would land at 37 ms).
        assert max(lat for _t, lat in receiver.delivery_log) < units.milliseconds(30)

    def test_two_flows_are_both_healed_in_network(self, sim):
        """Gap tracking, NAKs and the repair cache are per flow: two
        flows sharing the experiment are repaired independently."""
        _topo, _src, dst, _e1, e2, recovery, sender, receiver, got = build(sim, patience_ms=35)
        flows = {
            fid: sender.stack.create_sender(
                experiment_id=EXP_ID, mode="identify", dst_ip=dst.ip, flow_id=fid
            )
            for fid in (1, 2)
        }
        for i in range(300):
            for flow_sender in flows.values():
                sim.schedule(i * 20_000, flow_sender.send, 1500)
        sim.run()
        assert receiver.stats.naks_sent == 0  # no mid-stream NAK from the destination
        for fid in flows:
            receiver.request_missing(EXP_ID, 300, fid)
        sim.run()
        summary = receiver.flow_summary()
        for fid in flows:
            assert receiver.complete(EXP_ID, 300, fid)
            assert recovery.requester.flow(EXP_ID, fid).naks_sent > 0
            assert summary[(EXP_ID, fid)]["retransmissions"] > 0
        assert receiver.stats.duplicates == 0
        # Repairs (and the tapped stream) are cached under their own flow.
        assert set(e2.buffer.bytes_by_flow()) == {(EXP_ID, 1), (EXP_ID, 2)}
        for header in got:
            if header.msg_type == MsgType.RETX_DATA:
                assert e2.buffer.holds(EXP_ID, header.seq, header.flow_id)

    def test_losses_on_final_hop_fall_back_to_receiver_naks(self, sim):
        _topo, _src, _dst, _e1, e2, recovery, sender, receiver, got = build(
            sim, mid_loss=0.0, last_loss=0.05
        )
        run_stream(sim, sender, receiver)
        assert {h.seq for h in got} == set(range(400))
        assert recovery.stats.naks_sent == 0  # nothing lost upstream
        assert receiver.stats.naks_sent > 0   # receiver handled its hop
        # And the receiver's NAKs were served by e2 (nearest), not e1.
        assert e2.stats.naks_served > 0

    def test_requires_element_ip(self, sim):
        element = ProgrammableElement(sim, "bare", mac="02:00:00:00:00:01")
        with pytest.raises(ValueError):
            SegmentRecoveryProgram(upstream_buffer_addr="10.0.0.1").install(element)
