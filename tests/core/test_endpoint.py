"""MMT endpoints over a simulated network: delivery, recovery, control."""

import pytest

from repro.core import (
    EndpointError,
    MmtStack,
    MsgType,
    ReceiverConfig,
    make_experiment_id,
)
from repro.core.endpoint import Rows
from repro.netsim import units
from tests.conftest import TwoHostRig

EXP = 7
EXP_ID = make_experiment_id(EXP)


def build_endpoints(rig, mode="age-recover", loss=None, receiver_config=None, **sender_kwargs):
    if loss is not None:
        rig.link_b.loss_rate = loss
    stack_a = MmtStack(rig.a)
    stack_b = MmtStack(rig.b)
    got = []
    receiver = stack_b.bind_receiver(
        EXP, on_message=lambda p, h: got.append((p, h)), config=receiver_config
    )
    defaults = dict(age_budget_ns=units.seconds(1))
    defaults.update(sender_kwargs)
    if mode == "identify":
        defaults.pop("age_budget_ns", None)
    stack_a.attach_buffer(50_000_000)
    sender = stack_a.create_sender(
        experiment_id=EXP_ID,
        mode=mode,
        dst_ip=rig.b.ip,
        buffer_local=(mode != "identify"),
        **defaults,
    )
    return stack_a, stack_b, sender, receiver, got


class TestLosslessDelivery:
    def test_messages_delivered_in_order_sent(self, sim, rig):
        _sa, _sb, sender, receiver, got = build_endpoints(rig)
        for _ in range(20):
            sender.send(1000)
        sender.finish()
        sim.run()
        assert [h.seq for _p, h in got] == list(range(20))
        assert receiver.stats.messages_delivered == 20
        assert receiver.stats.naks_sent == 0

    def test_identify_mode_has_no_seq(self, sim, rig):
        _sa, _sb, sender, _receiver, got = build_endpoints(rig, mode="identify")
        sender.send(500)
        sim.run()
        assert got[0][1].seq is None
        assert got[0][1].config_id == 0

    def test_experiment_demux(self, sim, rig):
        stack_a = MmtStack(rig.a)
        stack_b = MmtStack(rig.b)
        stack_b.bind_receiver(EXP, on_message=lambda p, h: None)
        sender = stack_a.create_sender(
            experiment_id=make_experiment_id(99), mode="identify", dst_ip=rig.b.ip
        )
        sender.send(100)
        sim.run()
        assert stack_b.rx_unknown_experiment == 1

    def test_payload_bytes_survive(self, sim, rig):
        _sa, _sb, sender, _receiver, got = build_endpoints(rig)
        sender.send(5, payload=b"hello")
        sender.finish()
        sim.run()
        assert got[0][0].payload == b"hello"


class TestRows:
    """A delivery log reads as the list of tuples it replaced."""

    ROWS = [(1_000, MsgType.RETX_DATA, 3), (2_000, MsgType.DATA, -1), (2**40, 0, 7)]

    def logged(self) -> Rows:
        rows = Rows("time", "msg_type", "node")
        for time, msg_type, node in self.ROWS:
            rows.time.append(time)
            rows.msg_type.append(msg_type)
            rows.node.append(node)
        return rows

    def test_reads_like_the_list_it_replaces(self):
        rows, want = self.logged(), self.ROWS
        assert list(rows) == want and len(rows) == len(want)
        for index in (0, 1, 2, -1, -3):
            assert rows[index] == want[index]
        for index in (slice(1, None), slice(None, None, -1), slice(5, 9)):
            assert rows[index] == want[index]
        assert sorted(rows) == sorted(want)
        with pytest.raises(IndexError):
            rows[3]

    def test_msg_type_reads_back_as_an_int_equal_to_its_member(self):
        (_t, retx, _n), (_t2, data, _n2), _last = self.logged()
        assert type(retx) is int and retx == MsgType.RETX_DATA and data == MsgType.DATA

    def test_empty_rows_are_falsy(self):
        rows = Rows("time", "size")
        assert not rows and list(rows) == [] and rows[:] == []

    def test_receiver_logs_time_and_latency_per_delivery(self, sim, rig):
        _sa, _sb, sender, receiver, got = build_endpoints(rig)
        for _ in range(5):
            sender.send(1000)
        sender.finish()
        sim.run()
        assert len(receiver.delivery_log) == len(got) == 5
        for time, latency in receiver.delivery_log:
            assert 0 < latency <= time


class TestLossRecovery:
    def test_all_messages_recovered_under_loss(self, sim):
        rig = TwoHostRig(sim, middle_delay_ns=units.milliseconds(2), loss_rate=0.05)
        _sa, _sb, sender, receiver, got = build_endpoints(rig)
        for _ in range(300):
            sender.send(1000)
        sender.finish()
        sim.run()
        seqs = {h.seq for _p, h in got}
        assert seqs == set(range(300))
        assert receiver.stats.naks_sent > 0
        assert receiver.stats.retransmissions_received > 0
        assert receiver.stats.unrecovered == 0
        assert receiver.complete(EXP_ID, 300)

    def test_heartbeat_recovers_tail_loss(self, sim):
        """Even when the final data packets are lost, heartbeats reveal
        the gap and recovery completes without reconciliation."""
        rig = TwoHostRig(sim, middle_delay_ns=units.microseconds(100))
        _sa, _sb, sender, receiver, got = build_endpoints(rig)
        for _ in range(10):
            sender.send(1000)
        # Kill the link for a moment so the tail is lost.
        rig.link_b.loss_rate = 0.999999
        sim.rng("force")  # noqa: keep rng streams stable
        for _ in range(3):
            sender.send(1000)
        sender.finish()

        def heal():
            rig.link_b.loss_rate = 0.0

        sim.schedule(units.milliseconds(1), heal)
        sim.run()
        assert receiver.complete(EXP_ID, 13)
        assert {h.seq for _p, h in got} == set(range(13))

    def test_duplicates_suppressed(self, sim):
        rig = TwoHostRig(sim, middle_delay_ns=units.milliseconds(5), loss_rate=0.08)
        _sa, _sb, sender, receiver, got = build_endpoints(rig)
        for _ in range(200):
            sender.send(800)
        sender.finish()
        sim.run()
        seqs = [h.seq for _p, h in got]
        assert len(seqs) == len(set(seqs)), "duplicates must not reach the app"

    def test_unrecoverable_without_buffer_addr(self, sim):
        """Messages lost with no buffer advertised are counted, not hung."""
        rig = TwoHostRig(sim, loss_rate=0.1)
        stack_a = MmtStack(rig.a)
        stack_b = MmtStack(rig.b)
        receiver = stack_b.bind_receiver(EXP, on_message=lambda p, h: None)
        # Sequenced mode but no local buffer: buffer_addr stays 0.0.0.0.
        sender = stack_a.create_sender(
            experiment_id=EXP_ID,
            mode="age-recover",
            dst_ip=rig.b.ip,
            age_budget_ns=units.seconds(1),
            buffer_local=False,
        )
        for _ in range(100):
            sender.send(500)
        sender.finish()
        sim.run()
        assert receiver.stats.unrecovered > 0
        assert receiver.outstanding() == 0

    def test_request_missing_reconciles(self, sim):
        rig = TwoHostRig(sim, loss_rate=0.15, middle_delay_ns=units.milliseconds(1))
        _sa, _sb, sender, receiver, got = build_endpoints(
            rig, receiver_config=ReceiverConfig(initial_rtt_ns=units.milliseconds(4))
        )
        for _ in range(50):
            sender.send(700)
        sender.finish()
        sim.run()
        receiver.request_missing(EXP_ID, 50)
        sim.run()
        assert receiver.complete(EXP_ID, 50)


class TestTimeliness:
    def test_deadline_miss_reported_to_notify_addr(self, sim):
        rig = TwoHostRig(sim, middle_delay_ns=units.milliseconds(10))
        stack_a = MmtStack(rig.a)
        stack_b = MmtStack(rig.b)
        receiver = stack_b.bind_receiver(EXP, on_message=lambda p, h: None)
        stack_a.attach_buffer(1_000_000)
        sender = stack_a.create_sender(
            experiment_id=EXP_ID,
            mode="deliver-check",
            dst_ip=rig.b.ip,
            age_budget_ns=units.seconds(1),
            # Deadline shorter than the path's one-way delay: every
            # message misses.
            deadline_offset_ns=units.milliseconds(1),
            notify_addr=rig.a.ip,
            buffer_local=True,
        )
        for _ in range(5):
            sender.send(100)
        sender.finish()
        sim.run()
        assert receiver.stats.deadline_misses == 5
        assert len(stack_a.deadline_misses) == 5
        assert stack_a.deadline_misses[0].experiment_id == EXP_ID

    def test_deadline_met_counted(self, sim, rig):
        stack_a = MmtStack(rig.a)
        stack_b = MmtStack(rig.b)
        receiver = stack_b.bind_receiver(EXP, on_message=lambda p, h: None)
        stack_a.attach_buffer(1_000_000)
        sender = stack_a.create_sender(
            experiment_id=EXP_ID,
            mode="deliver-check",
            dst_ip=rig.b.ip,
            age_budget_ns=units.seconds(1),
            deadline_offset_ns=units.seconds(1),
            notify_addr=rig.a.ip,
            buffer_local=True,
        )
        sender.send(100)
        sender.finish()
        sim.run()
        assert receiver.stats.deadline_ok == 1
        assert receiver.stats.deadline_misses == 0


class TestPacingAndBackpressure:
    def test_paced_sender_spaces_transmissions(self, sim, rig):
        from repro.core import extended_registry

        stack_a = MmtStack(rig.a, extended_registry())
        stack_b = MmtStack(rig.b, extended_registry())
        arrivals = []
        stack_b.bind_receiver(EXP, on_message=lambda p, h: arrivals.append(sim.now))
        stack_a.attach_buffer(1_000_000)
        sender = stack_a.create_sender(
            experiment_id=EXP_ID,
            mode="paced",
            dst_ip=rig.b.ip,
            pace_rate_mbps=80,  # 10 MB/s -> 1000B every 100 us
            buffer_local=True,
        )
        for _ in range(5):
            sender.send(1000)
        sender.finish()
        sim.run()
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
        assert all(g >= units.microseconds(95) for g in gaps)

    def test_backpressure_reduces_pace(self, sim, rig):
        from repro.core import BackpressurePayload, extended_registry

        stack_a = MmtStack(rig.a, extended_registry())
        stack_a.attach_buffer(1_000_000)
        sender = stack_a.create_sender(
            experiment_id=EXP_ID,
            mode="backpressured",
            dst_ip=rig.b.ip,
            pace_rate_mbps=10_000,
            buffer_local=True,
        )
        sender.apply_backpressure(
            BackpressurePayload(advised_rate_mbps=2_000, origin="10.0.0.9", severity=1)
        )
        assert sender.pace_rate_mbps == 2_000
        assert sender.stats.backpressure_signals == 1

    def test_backpressure_ignored_without_feature(self, sim, rig):
        from repro.core import BackpressurePayload

        _sa, _sb, sender, _receiver, _got = build_endpoints(rig)
        sender.pace_rate_mbps = 9_999
        sender.apply_backpressure(
            BackpressurePayload(advised_rate_mbps=10, origin="10.0.0.9")
        )
        assert sender.pace_rate_mbps == 9_999


class TestApiGuards:
    def test_send_after_finish_rejected(self, sim, rig):
        _sa, _sb, sender, _receiver, _got = build_endpoints(rig)
        sender.finish()
        with pytest.raises(EndpointError):
            sender.send(1)

    def test_sender_requires_destination(self, sim, rig):
        stack = MmtStack(rig.a)
        with pytest.raises(EndpointError):
            stack.create_sender(experiment_id=EXP_ID, mode="identify")

    def test_mode_prerequisites_enforced(self, sim, rig):
        stack = MmtStack(rig.a)
        with pytest.raises(EndpointError):
            stack.create_sender(
                experiment_id=EXP_ID, mode="age-recover", dst_ip=rig.b.ip
            )  # age_budget_ns missing

    def test_double_bind_rejected(self, sim, rig):
        stack = MmtStack(rig.b)
        stack.bind_receiver(EXP)
        with pytest.raises(EndpointError):
            stack.bind_receiver(EXP)

    def test_double_buffer_rejected(self, sim, rig):
        stack = MmtStack(rig.a)
        stack.attach_buffer(1000)
        with pytest.raises(EndpointError):
            stack.attach_buffer(1000)

    def test_buffer_local_requires_buffer(self, sim, rig):
        stack = MmtStack(rig.a)
        with pytest.raises(EndpointError):
            stack.create_sender(
                experiment_id=EXP_ID,
                mode="age-recover",
                dst_ip=rig.b.ip,
                age_budget_ns=1,
                buffer_local=True,
            )
