"""Loss models: uniform, Gilbert–Elliott bursts."""

import random

import pytest

from repro.core import Feature, MmtHeader, MsgType
from repro.faults import GilbertElliottLoss, UniformLoss
from repro.netsim import Packet


def data_packet(msg_type=MsgType.DATA):
    header = MmtHeader(config_id=1, features=Feature.SEQUENCED,
                       msg_type=msg_type, experiment_id=7)
    return Packet(mmt=header, payload_size=100)


class TestUniform:
    def test_rate_zero_never_drops(self):
        model = UniformLoss(0.0)
        rng = random.Random(1)
        assert not any(model.should_drop(data_packet(), rng) for _ in range(100))
        assert model.dropped == 0

    def test_rate_validated(self):
        with pytest.raises(ValueError):
            UniformLoss(1.5)

    def test_drop_fraction_tracks_rate(self):
        model = UniformLoss(0.3)
        rng = random.Random(7)
        drops = sum(model.should_drop(data_packet(), rng) for _ in range(5000))
        assert 0.25 < drops / 5000 < 0.35
        assert model.dropped == drops


class TestGilbertElliott:
    def test_losses_are_bursty_not_uniform(self):
        """With the same long-run loss fraction, GE drops cluster into
        runs; measure via consecutive-drop pairs vs a uniform model."""
        ge = GilbertElliottLoss(
            p_good_to_bad=0.02, p_bad_to_good=0.2, loss_good=0.0, loss_bad=0.8
        )
        rng = random.Random(123)
        outcomes = [ge.should_drop(data_packet(), rng) for _ in range(20_000)]
        rate = sum(outcomes) / len(outcomes)
        uniform = UniformLoss(rate)
        rng2 = random.Random(123)
        flat = [uniform.should_drop(data_packet(), rng2) for _ in range(20_000)]

        def pairs(seq):
            return sum(1 for a, b in zip(seq, seq[1:]) if a and b)

        assert ge.bursts > 100
        assert pairs(outcomes) > 3 * pairs(flat)

    def test_deterministic_given_same_rng_seed(self):
        def run():
            model = GilbertElliottLoss()
            rng = random.Random("55:link")
            return [model.should_drop(data_packet(), rng) for _ in range(2000)]

        assert run() == run()

    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            GilbertElliottLoss(p_good_to_bad=-0.1)
        with pytest.raises(ValueError):
            GilbertElliottLoss(loss_bad=1.01)

    def test_good_regime_can_be_lossless(self):
        model = GilbertElliottLoss(p_good_to_bad=0.0, loss_good=0.0)
        rng = random.Random(5)
        assert not any(model.should_drop(data_packet(), rng) for _ in range(500))


class TestLinkIntegration:
    def test_loss_model_drops_counted_separately(self, sim):
        """A model on the link counts into lost_model, not lost_random,
        and installing one does not perturb other RNG streams."""
        from repro.core import MmtStack, make_experiment_id
        from tests.conftest import TwoHostRig

        rig = TwoHostRig(sim)
        rig.link_b.loss_model = UniformLoss(0.5)
        stack_a = MmtStack(rig.a)
        stack_b = MmtStack(rig.b)
        got = []
        stack_b.bind_receiver(3, on_message=lambda p, h: got.append(h.seq))
        sender = stack_a.create_sender(
            experiment_id=make_experiment_id(3), mode="identify", dst_ip=rig.b.ip
        )
        for _ in range(200):
            sender.send(500)
        sim.run()
        stats = rig.link_b.stats
        assert stats.lost_model > 50
        assert stats.lost_random == 0
        assert len(got) == 200 - stats.lost_model
