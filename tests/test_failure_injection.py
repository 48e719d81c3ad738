"""Failure injection across modules: outages, partitions, overload.

These tests intentionally break things mid-run and check the system
degrades the way the design says it should — recovery after healing,
bounded give-up when recovery is impossible, counters that tell the
operator what happened. Faults are driven through
:class:`repro.faults.FaultPlan`, the same scripted injection the chaos
harness uses, so the tests double as coverage for the injector.
"""

import random

from repro.core import MmtStack, MsgType, ReceiverConfig, make_experiment_id
from repro.dataplane import PilotConfig, PilotTestbed
from repro.faults import FaultInjector, FaultPlan
from repro.netsim import LossModel, Packet, Simulator, units
from tests.conftest import TwoHostRig

EXP = 7
EXP_ID = make_experiment_id(EXP)


class FlowFilteredLoss(LossModel):
    """Drop one flow's DATA/RETX_DATA packets with probability ``rate``.

    Every other packet returns False *without consuming a random draw*,
    so co-resident flows see exactly the draws of an undisturbed run.
    """

    def __init__(self, rate: float, flow_id: int) -> None:
        self.rate = rate
        self.flow_id = flow_id
        self.dropped = 0

    def should_drop(self, packet: Packet, rng: random.Random) -> bool:
        mmt = packet.mmt
        if mmt is None or mmt.msg_type not in (MsgType.DATA, MsgType.RETX_DATA):
            return False
        if (mmt.flow_id or 0) != self.flow_id or rng.random() >= self.rate:
            return False
        self.dropped += 1
        return True


class TestLinkOutage:
    def build(self, sim):
        rig = TwoHostRig(sim, middle_delay_ns=units.milliseconds(2))
        stack_a = MmtStack(rig.a)
        stack_b = MmtStack(rig.b)
        got = set()
        receiver = stack_b.bind_receiver(
            EXP, on_message=lambda p, h: got.add(h.seq),
            config=ReceiverConfig(initial_rtt_ns=units.milliseconds(8)),
        )
        stack_a.attach_buffer(256 * 1024 * 1024)
        sender = stack_a.create_sender(
            experiment_id=EXP_ID, mode="age-recover", dst_ip=rig.b.ip,
            age_budget_ns=units.seconds(10), buffer_local=True,
        )
        return rig, sender, receiver, got

    def test_outage_mid_stream_fully_recovered_after_heal(self, sim):
        rig, sender, receiver, got = self.build(sim)
        for i in range(600):
            sim.schedule(i * 50_000, sender.send, 2000)  # 30 ms stream
        # A hard 8 ms outage in the middle of the stream.
        plan = (
            FaultPlan()
            .link_down(rig.link_b, at_ns=units.milliseconds(10))
            .link_up(rig.link_b, at_ns=units.milliseconds(18))
        )
        injector = FaultInjector(sim, plan)
        injector.arm()
        sim.schedule(units.milliseconds(31), sender.finish)
        sim.run()
        receiver.request_missing(EXP_ID, 600)
        sim.run()
        assert got == set(range(600))
        assert receiver.stats.retransmissions_received > 50  # the outage window
        assert receiver.stats.unrecovered == 0
        assert len(injector.fired) == 2
        # Every frame the dead link swallowed is accounted for.
        assert rig.link_b.stats.lost_down > 50

    def test_permanent_partition_gives_up_boundedly(self, sim):
        rig, sender, receiver, got = self.build(sim)
        for i in range(50):
            sender.send(1000)
        FaultInjector(
            sim, FaultPlan().link_down(rig.link_b, at_ns=units.microseconds(10))
        ).arm()
        sender.finish()
        sim.run(until_ns=units.seconds(600))
        # Whatever was in flight before the cut arrived; the rest was
        # eventually abandoned (bounded NAK retries), not retried forever.
        assert receiver.stats.naks_sent <= receiver.config.max_naks + 2
        assert sim.pending_events() == 0  # no timer leaks after give-up


class TestBufferUndersizing:
    def test_eviction_makes_old_losses_unrecoverable_but_counted(self, sim):
        """An undersized buffer cannot serve old NAKs: the receiver
        gives up on exactly those, and the buffer counts the misses."""
        rig = TwoHostRig(sim, middle_delay_ns=units.milliseconds(20), loss_rate=0.05)
        stack_a = MmtStack(rig.a)
        stack_b = MmtStack(rig.b)
        receiver = stack_b.bind_receiver(
            EXP, config=ReceiverConfig(initial_rtt_ns=units.milliseconds(45), max_naks=3),
        )
        buffer = stack_a.attach_buffer(20_000)  # holds ~6 messages only
        sender = stack_a.create_sender(
            experiment_id=EXP_ID, mode="age-recover", dst_ip=rig.b.ip,
            age_budget_ns=units.seconds(10), buffer_local=True,
        )
        for i in range(400):
            sim.schedule(i * 20_000, sender.send, 3000)
        sim.schedule(400 * 20_000, sender.finish)
        sim.run()
        assert buffer.stats.evicted > 300
        assert buffer.stats.misses > 0
        assert receiver.stats.unrecovered > 0
        # The stream still terminated cleanly.
        assert receiver.outstanding() == 0


class TestPilotUnderStress:
    def test_pilot_survives_outage_and_recovers(self):
        config = PilotConfig(wan_delay_ns=2 * units.MILLISECOND)
        pilot = PilotTestbed(sim=Simulator(seed=77), config=config)
        pilot.send_stream(800, payload_size=4000, interval_ns=20_000)  # 16 ms stream
        plan = (
            FaultPlan()
            .link_down(pilot.wan_link, at_ns=units.milliseconds(5))
            .link_up(pilot.wan_link, at_ns=units.milliseconds(9))
        )
        FaultInjector(pilot.sim, plan).arm()
        report = pilot.run()
        assert report.complete
        assert report.retransmissions > 100
        assert report.naks_served >= 1

    def test_pilot_heavy_loss_still_complete(self):
        config = PilotConfig(
            wan_delay_ns=1 * units.MILLISECOND, wan_loss_rate=0.15
        )
        pilot = PilotTestbed(sim=Simulator(seed=78), config=config)
        pilot.send_stream(300, payload_size=2000, interval_ns=10_000)
        report = pilot.run()
        assert report.complete
        assert report.naks_sent > 0


class TestCrossFlowIsolation:
    """Faults aimed at one flow of a concurrent mix stay contained.

    Three flows share the pilot path; a fault that targets (or merely
    coincides with) flow 1 must never change what the bystander flows
    *deliver* — same message counts, same bytes, same NAK/retransmission
    counters as an undisturbed run. Timing may shift (recovery traffic
    shares the links); content may not.
    """

    FLOWS = 3
    PER_FLOW = 200
    PAYLOAD = 4000
    INTERVAL_NS = 60_000  # per-flow send period; ~12 ms stream

    #: per_flow report keys that describe *content*, not timing.
    CONTENT_KEYS = (
        "sent",
        "relayed",
        "delivered",
        "bytes_delivered",
        "naks_sent",
        "retransmissions",
        "unrecovered",
    )

    def build(self, seed, **config_kwargs):
        config = PilotConfig(
            flows=self.FLOWS,
            wan_delay_ns=2 * units.MILLISECOND,
            **config_kwargs,
        )
        pilot = PilotTestbed(sim=Simulator(seed=seed), config=config)
        for fid in range(self.FLOWS):
            pilot.send_stream(
                self.PER_FLOW,
                payload_size=self.PAYLOAD,
                interval_ns=self.INTERVAL_NS,
                flow=fid,
            )
        return pilot

    def test_flow_targeted_loss_never_perturbs_bystanders(self):
        """Heavy loss filtered to flow 1's data: flow 1 recovers through
        NAKs, flows 0 and 2 deliver content-identically to a clean run
        — and never even engage their recovery machinery."""
        clean = self.build(seed=91).run()

        pilot = self.build(seed=91)
        model = FlowFilteredLoss(rate=0.25, flow_id=1)
        plan = (
            FaultPlan()
            .set_loss_model(pilot.wan_link, model, at_ns=units.milliseconds(2))
            .clear_loss_model(pilot.wan_link, at_ns=units.milliseconds(8))
        )
        FaultInjector(pilot.sim, plan).arm()
        report = pilot.run()

        assert report.complete
        assert model.dropped > 0
        hit = report.per_flow[1]
        assert hit["naks_sent"] > 0
        assert hit["retransmissions"] > 0
        assert hit["unrecovered"] == 0
        assert hit["delivered"] == self.PER_FLOW
        for bystander in (0, 2):
            faulted_row = report.per_flow[bystander]
            clean_row = clean.per_flow[bystander]
            for key in self.CONTENT_KEYS:
                assert faulted_row[key] == clean_row[key], (bystander, key)
            # Not merely unchanged: the bystanders saw no loss at all.
            assert faulted_row["naks_sent"] == 0
            assert faulted_row["retransmissions"] == 0

    def test_link_flap_under_three_flows_all_recover(self):
        """A hard WAN outage hits every concurrent flow; each one
        recovers its own stream completely and independently."""
        pilot = self.build(seed=92)
        plan = (
            FaultPlan()
            .link_down(pilot.wan_link, at_ns=units.milliseconds(5))
            .link_up(pilot.wan_link, at_ns=units.milliseconds(9))
        )
        injector = FaultInjector(pilot.sim, plan)
        injector.arm()
        report = pilot.run()
        assert report.complete
        assert len(injector.fired) == 2
        for fid in range(self.FLOWS):
            row = report.per_flow[fid]
            assert row["delivered"] == self.PER_FLOW, fid
            assert row["unrecovered"] == 0, fid
            # The outage window straddles all three flows' streams.
            assert row["retransmissions"] > 0, fid

    def test_buffer_failover_under_three_flows(self):
        """The shared U280 buffer dies mid-run with three flows' worth
        of retransmit state in it; directory failover re-stamps all
        flows to the DTN 1 buffer and every flow still completes."""
        pilot = self.build(
            seed=93,
            wan_loss_rate=0.02,
            use_directory=True,
            reliable_from_dtn1=True,
            failover_buffer=True,
        )
        plan = FaultPlan().buffer_fail(
            pilot.buffer, at_ns=units.milliseconds(6), directory=pilot.directory
        )
        FaultInjector(pilot.sim, plan).arm()
        report = pilot.run()
        assert report.complete
        assert pilot.tofino_nearest.failovers > 0
        for fid in range(self.FLOWS):
            row = report.per_flow[fid]
            assert row["delivered"] == self.PER_FLOW, fid
            assert row["unrecovered"] == 0, fid
