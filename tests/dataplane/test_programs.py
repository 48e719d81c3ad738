"""The MMT dataplane programs, unit-tested on a bare element."""

import pytest

from repro.core import (
    BufferDirectory,
    Feature,
    MmtHeader,
    MsgType,
    pilot_registry,
)
from repro.dataplane import (
    AGE_EPOCH_META,
    AgeUpdateProgram,
    BackpressureProgram,
    BufferTapProgram,
    DuplicationProgram,
    Metadata,
    ModeTransitionProgram,
    NearestBufferProgram,
    ProgrammableElement,
    TransitionRule,
)
from repro.netsim import EthernetHeader, Ipv4Header, Packet


@pytest.fixture
def element(sim):
    return ProgrammableElement(sim, "el", mac="02:00:00:00:00:01", ip="10.0.0.50")


def mmt_packet(header=None, **kwargs):
    return Packet(
        eth=EthernetHeader(), ip=Ipv4Header(dst="10.9.9.9"), mmt=header or MmtHeader(**kwargs),
        payload_size=200,
    )


def run_pipeline(element, packet, **meta_kwargs):
    meta = Metadata(now_ns=element.sim.now, **meta_kwargs)
    element.pipeline.process(packet, meta)
    return meta


class TestModeTransition:
    def test_mode0_data_transitions(self, element):
        program = ModeTransitionProgram(
            pilot_registry(),
            [TransitionRule(from_config_id=0, to_mode="age-recover",
                            buffer_addr="10.0.0.50", age_budget_ns=5000)],
        )
        program.install(element)
        packet = mmt_packet(experiment_id=42 << 8)
        run_pipeline(element, packet)
        header = packet.mmt
        assert header.config_id == 1
        assert header.seq == 0
        assert header.buffer_addr == "10.0.0.50"
        assert packet.meta[AGE_EPOCH_META] == 0
        assert program.transitions_applied == 1

    def test_sequence_numbers_from_register_increment(self, element):
        program = ModeTransitionProgram(
            pilot_registry(),
            [TransitionRule(from_config_id=0, to_mode="age-recover",
                            buffer_addr="10.0.0.50", age_budget_ns=5000)],
        )
        program.install(element)
        seqs = []
        for _ in range(3):
            packet = mmt_packet(experiment_id=42 << 8)
            run_pipeline(element, packet)
            seqs.append(packet.mmt.seq)
        assert seqs == [0, 1, 2]

    def test_independent_seq_spaces_per_flow(self, element):
        program = ModeTransitionProgram(
            pilot_registry(),
            [TransitionRule(from_config_id=0, to_mode="age-recover",
                            buffer_addr="10.0.0.50", age_budget_ns=5000)],
        )
        program.install(element)
        p1 = mmt_packet(experiment_id=1 << 8)
        p2 = mmt_packet(experiment_id=2 << 8)
        run_pipeline(element, p1)
        run_pipeline(element, p2)
        assert p1.mmt.seq == 0
        assert p2.mmt.seq == 0

    def test_control_messages_not_transitioned(self, element):
        program = ModeTransitionProgram(
            pilot_registry(),
            [TransitionRule(from_config_id=0, to_mode="age-recover",
                            buffer_addr="10.0.0.50", age_budget_ns=5000)],
        )
        program.install(element)
        packet = mmt_packet(msg_type=MsgType.NAK)
        run_pipeline(element, packet)
        assert packet.mmt.config_id == 0

    def test_ingress_port_scoping(self, element):
        program = ModeTransitionProgram(
            pilot_registry(),
            [TransitionRule(from_config_id=0, to_mode="age-recover",
                            ingress_port="wan", buffer_addr="10.0.0.50",
                            age_budget_ns=5000)],
        )
        program.install(element)
        packet = mmt_packet()
        run_pipeline(element, packet, ingress_port="lan")
        assert packet.mmt.config_id == 0
        run_pipeline(element, packet, ingress_port="wan")
        assert packet.mmt.config_id == 1

    def test_deadline_set_relative_to_now(self, element):
        registry = pilot_registry()
        program = ModeTransitionProgram(
            registry,
            [TransitionRule(from_config_id=1, to_mode="deliver-check",
                            deadline_offset_ns=1_000_000, notify_addr="10.0.0.9")],
        )
        program.install(element)
        header = MmtHeader(
            config_id=1,
            features=Feature.SEQUENCED | Feature.RETRANSMISSION | Feature.AGE_TRACKING,
            seq=5, buffer_addr="10.0.0.50", age_ns=0, age_budget_ns=100,
        )
        packet = mmt_packet(header=header)
        element.sim.schedule(500, lambda: None)
        element.sim.run()
        meta = Metadata(now_ns=element.sim.now)
        element.pipeline.process(packet, meta)
        assert header.deadline_ns == 500 + 1_000_000


class TestAgeUpdate:
    def make_aged_packet(self, epoch=0, budget=1000, features=Feature.AGE_TRACKING, age_ns=0):
        header = MmtHeader(features=features, age_ns=age_ns, age_budget_ns=budget)
        packet = mmt_packet(header=header)
        if epoch is not None:
            packet.meta[AGE_EPOCH_META] = epoch
        return packet, header

    def at(self, element, now_ns):
        element.sim.schedule(now_ns - element.sim.now, lambda: None)
        element.sim.run()

    def test_age_written_and_dscp_marked(self, element):
        program = AgeUpdateProgram()
        program.install(element)
        packet, header = self.make_aged_packet()
        self.at(element, 700)
        run_pipeline(element, packet)
        assert header.age_ns == 700
        assert not header.aged
        assert packet.ip.dscp == AgeUpdateProgram.EF_DSCP == 46
        assert program.updates == 1

    def test_aged_flag_past_budget(self, element):
        program = AgeUpdateProgram()
        program.install(element)
        packet, header = self.make_aged_packet(budget=100)
        self.at(element, 500)
        run_pipeline(element, packet)
        assert header.aged
        assert program.newly_aged == 1

    def test_newly_aged_counts_once(self, element):
        program = AgeUpdateProgram()
        program.install(element)
        packet, header = self.make_aged_packet(budget=1000)
        for now_ns, aged in ((999, False), (1001, True), (5000, True)):
            self.at(element, now_ns)
            run_pipeline(element, packet)
            assert header.aged is aged
        assert program.updates == 3
        assert program.newly_aged == 1

    @pytest.mark.parametrize("features, epoch, age_ns", [
        (Feature.AGE_TRACKING, 900, 1000),  # stamp says 100 ns: stale
        (Feature.NONE, 0, 0),
        (Feature.AGE_TRACKING, None, 0),
    ], ids=["stale-stamp-cannot-lower-age", "untracked-header", "missing-epoch"])
    def test_update_leaves_age_alone(self, element, features, epoch, age_ns):
        program = AgeUpdateProgram()
        program.install(element)
        packet, header = self.make_aged_packet(epoch=epoch, features=features, age_ns=age_ns)
        self.at(element, 1000)
        run_pipeline(element, packet)
        assert header.age_ns == age_ns
        assert not header.aged
        assert program.updates == 0

    def test_untracked_ignored(self, element):
        program = AgeUpdateProgram()
        program.install(element)
        packet = mmt_packet()
        run_pipeline(element, packet)
        assert program.updates == 0


class TestBufferPrograms:
    def seq_header(self):
        return MmtHeader(
            features=Feature.SEQUENCED | Feature.RETRANSMISSION,
            seq=3,
            buffer_addr="10.0.0.1",
        )

    def test_buffer_tap_mirrors_and_rewrites(self, element):
        BufferTapProgram(buffer_addr="10.0.0.50").install(element)
        packet = mmt_packet(header=self.seq_header())
        meta = run_pipeline(element, packet)
        assert meta.mirror_to_buffer
        assert packet.mmt.buffer_addr == "10.0.0.50"

    def test_buffer_tap_skips_unsequenced_and_retx(self, element):
        BufferTapProgram(buffer_addr="10.0.0.50").install(element)
        plain = mmt_packet()
        assert not run_pipeline(element, plain).mirror_to_buffer
        retx = self.seq_header()
        retx.msg_type = MsgType.RETX_DATA
        packet = mmt_packet(header=retx)
        assert not run_pipeline(element, packet).mirror_to_buffer

    def test_nearest_buffer_rewrites_only_retransmission(self, element):
        program = NearestBufferProgram(buffer_addr="10.0.0.99")
        program.install(element)
        packet = mmt_packet(header=self.seq_header())
        run_pipeline(element, packet)
        assert packet.mmt.buffer_addr == "10.0.0.99"
        assert program.rewrites == 1
        plain = mmt_packet()
        run_pipeline(element, plain)
        assert program.rewrites == 1

    def reliable_header(self, experiment_id, flow_id=None):
        header = MmtHeader(
            features=Feature.SEQUENCED | Feature.RETRANSMISSION,
            seq=0,
            buffer_addr="10.0.0.1",
            experiment_id=experiment_id,
        )
        if flow_id is not None:
            header.features |= Feature.FLOW_ID
            header.flow_id = flow_id
        return header

    def test_nearest_buffer_no_phantom_failovers_across_flows(self, element):
        """Regression: the last-stamp cell is per ``(experiment, flow)``.

        With a single shared cell, interleaving two experiments whose
        directory answers legitimately differ made every packet read the
        *other* experiment's last stamp and count a phantom failover."""
        exp_a, exp_b = 42 << 8, 43 << 8
        directory = BufferDirectory()
        directory.register("10.0.1.1", path_position=1, experiments={exp_a})
        directory.register("10.0.2.2", path_position=1, experiments={exp_b})
        program = NearestBufferProgram(directory=directory, path_position=2)
        program.install(element)
        for _round in range(4):
            for exp in (exp_a, exp_b):
                run_pipeline(element, mmt_packet(header=self.reliable_header(exp)))
        assert program.failovers == 0
        assert program.rewrites > 0

    def test_nearest_buffer_counts_one_failover_per_flow(self, element):
        """When a buffer really dies, each flow stamped onto the
        replacement counts exactly one observable failover — not one per
        packet, and never for flows whose buffer stayed alive."""
        exp_a, exp_b = 42 << 8, 43 << 8
        directory = BufferDirectory()
        directory.register("10.0.1.1", path_position=1, experiments={exp_a})
        directory.register("10.0.2.2", path_position=1, experiments={exp_b})
        directory.register("10.0.0.9", path_position=0)  # shared fallback
        program = NearestBufferProgram(directory=directory, path_position=2)
        program.install(element)

        def send(exp, flow_id=None):
            run_pipeline(
                element, mmt_packet(header=self.reliable_header(exp, flow_id))
            )

        for flow_id in (0, 1):
            send(exp_a, flow_id)
            send(exp_b)
        directory.mark_down("10.0.1.1")
        for _round in range(3):
            for flow_id in (0, 1):
                send(exp_a, flow_id)
                send(exp_b)
        # Both of experiment A's flows failed over exactly once each;
        # experiment B never did.
        assert program.failovers == 2


class TestDuplication:
    def dup_header(self, group=5):
        return MmtHeader(
            features=Feature.SEQUENCED | Feature.DUPLICATION,
            seq=0,
            dup_group=group,
            dup_copies=1,
        )

    def test_matching_group_cloned(self, element):
        program = DuplicationProgram({5: ["10.3.0.1", "10.3.0.2"]})
        program.install(element)
        packet = mmt_packet(header=self.dup_header())
        meta = run_pipeline(element, packet)
        assert meta.clones == ["10.3.0.1", "10.3.0.2"]
        assert packet.mmt.dup_copies == 3
        assert program.duplicated == 1

    def test_other_group_untouched(self, element):
        program = DuplicationProgram({5: ["10.3.0.1"]})
        program.install(element)
        packet = mmt_packet(header=self.dup_header(group=6))
        meta = run_pipeline(element, packet)
        assert meta.clones == []


class TestBackpressure:
    def bp_header(self):
        return MmtHeader(features=Feature.BACKPRESSURE, source_addr="10.0.0.2")

    def test_signal_generated_when_hot(self, element):
        program = BackpressureProgram(occupancy_threshold_pct=60, min_interval_ns=0)
        program.install(element)
        packet = mmt_packet(header=self.bp_header())
        meta = Metadata(now_ns=1)
        meta.queue_occupancy_pct = 80
        element.pipeline.process(packet, meta)
        assert len(meta.generated) == 1
        assert meta.generated[0][0] == "10.0.0.2"
        assert program.signals_sent == 1

    def test_quiet_queue_no_signal(self, element):
        program = BackpressureProgram(occupancy_threshold_pct=60)
        program.install(element)
        packet = mmt_packet(header=self.bp_header())
        meta = Metadata(now_ns=1)
        meta.queue_occupancy_pct = 10
        element.pipeline.process(packet, meta)
        assert meta.generated == []

    def test_rate_limited_by_register(self, element):
        program = BackpressureProgram(
            occupancy_threshold_pct=50, min_interval_ns=1_000_000
        )
        program.install(element)
        for t in (2_000_000, 2_000_001, 3_500_000):
            packet = mmt_packet(header=self.bp_header())
            meta = Metadata(now_ns=t)
            meta.queue_occupancy_pct = 90
            element.pipeline.process(packet, meta)
        assert program.signals_sent == 2  # second packet rate-limited
