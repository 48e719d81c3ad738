"""Serial-number arithmetic and end-to-end 32-bit wraparound."""

import pytest
from hypothesis import given, strategies as st

from repro.core import MmtStack, ReceiverConfig, make_experiment_id
from repro.core.seqspace import SEQ_MOD, unwrap, wrap
from repro.netsim import units
from tests.conftest import TwoHostRig

EXP = 7
EXP_ID = make_experiment_id(EXP)


class TestWrapUnwrap:
    def test_wrap_masks(self):
        assert wrap(5) == 5
        assert wrap(SEQ_MOD) == 0
        assert wrap(SEQ_MOD + 17) == 17

    def test_wrap_negative_rejected(self):
        with pytest.raises(ValueError):
            wrap(-1)

    def test_unwrap_same_epoch(self):
        assert unwrap(100, reference=90) == 100
        assert unwrap(50, reference=90) == 50

    def test_unwrap_across_boundary_forward(self):
        # Reference just before the wrap; small wire values are *ahead*.
        reference = SEQ_MOD - 10
        assert unwrap(3, reference) == SEQ_MOD + 3

    def test_unwrap_across_boundary_backward(self):
        # Reference just after the wrap; huge wire values are *behind*.
        reference = SEQ_MOD + 5
        assert unwrap(SEQ_MOD - 2, reference) == SEQ_MOD - 2

    def test_unwrap_clamps_at_zero(self):
        # Early stream: values cannot unwrap below zero.
        assert unwrap(SEQ_MOD - 1, reference=0) == SEQ_MOD - 1

    def test_validation(self):
        with pytest.raises(ValueError):
            unwrap(SEQ_MOD, 0)
        with pytest.raises(ValueError):
            unwrap(0, -1)

    @given(virtual=st.integers(0, 2**40), delta=st.integers(-(2**20), 2**20))
    def test_roundtrip_near_reference(self, virtual, delta):
        """Any virtual seq within 2^20 of the reference survives the
        wrap/unwrap round trip exactly."""
        reference = virtual + delta
        if reference < 0:
            reference = 0
        recovered = unwrap(wrap(virtual), reference)
        # Equal whenever virtual is within half the space of reference.
        if abs(virtual - reference) < SEQ_MOD // 2 and not (
            virtual < SEQ_MOD // 2 and reference >= SEQ_MOD
        ):
            assert recovered == virtual


class TestEndToEndWraparound:
    def run_stream(self, sim, start_virtual, count=300, loss=0.04):
        rig = TwoHostRig(sim, middle_delay_ns=units.milliseconds(2), loss_rate=loss)
        stack_a = MmtStack(rig.a)
        stack_b = MmtStack(rig.b)
        arrivals = []
        receiver = stack_b.bind_receiver(
            EXP,
            on_message=lambda p, h: arrivals.append(h.seq),
            config=ReceiverConfig(initial_rtt_ns=units.milliseconds(8)),
        )
        stack_a.attach_buffer(64 * 1024 * 1024)
        sender = stack_a.create_sender(
            experiment_id=EXP_ID, mode="age-recover", dst_ip=rig.b.ip,
            age_budget_ns=units.seconds(1), buffer_local=True,
        )
        # Long-running stream: position the sender near the wrap point
        # (equivalent to having sent ~4.29 billion messages already).
        sender._next_seq = start_virtual
        for _ in range(count):
            sender.send(600)
        sender.finish()
        sim.run()
        receiver.request_missing(EXP_ID, start_virtual + count)
        sim.run()
        return arrivals, receiver

    def test_stream_crossing_wrap_recovers_fully(self, sim):
        start = SEQ_MOD - 150  # wraps mid-stream
        arrivals, receiver = self.run_stream(sim, start, count=300)
        virtuals = sorted(unwrap(a, start + 150) for a in set(arrivals))
        assert virtuals == list(range(start, start + 300))
        assert receiver.stats.unrecovered == 0
        assert receiver.outstanding() == 0
        assert receiver.stats.retransmissions_received > 0

    def test_wire_values_actually_wrapped(self, sim):
        start = SEQ_MOD - 5
        arrivals, _receiver = self.run_stream(sim, start, count=10, loss=0.0)
        assert set(arrivals) == {SEQ_MOD - 5, SEQ_MOD - 4, SEQ_MOD - 3,
                                 SEQ_MOD - 2, SEQ_MOD - 1, 0, 1, 2, 3, 4}

    def test_mid_stream_join_does_not_demand_history(self, sim):
        """A receiver that first hears seq ~4e9 must not try to recover
        four billion 'missing' predecessors."""
        arrivals, receiver = self.run_stream(sim, SEQ_MOD - 100, count=200, loss=0.0)
        assert len(arrivals) == 200
        assert receiver.stats.unrecovered == 0
        assert receiver.stats.naks_sent == 0  # nothing was ever missing
