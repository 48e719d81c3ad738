"""Mode registry and transition semantics."""

import pytest

from repro.core import (
    AckScheme,
    Feature,
    MmtHeader,
    Mode,
    ModeError,
    ModeRegistry,
    TransitionContext,
    extended_registry,
    pilot_registry,
    transition,
)


class TestRegistry:
    def test_pilot_has_three_modes(self):
        registry = pilot_registry()
        assert len(registry) == 3
        assert {mode.config_id: mode.name for mode in registry} == {
            0: "identify", 1: "age-recover", 2: "deliver-check",
        }

    def test_extended_superset_of_pilot(self):
        registry = extended_registry()
        for mode in pilot_registry():
            assert registry.by_name(mode.name).config_id == mode.config_id
        assert registry.by_name("fanout")
        assert registry.by_name("backpressured")

    def test_duplicate_ids_rejected(self):
        registry = ModeRegistry()
        registry.register(Mode(9, "one", Feature.NONE))
        with pytest.raises(ModeError):
            registry.register(Mode(9, "two", Feature.NONE))
        with pytest.raises(ModeError):
            registry.register(Mode(10, "one", Feature.NONE))

    def test_unknown_lookups(self):
        registry = pilot_registry()
        with pytest.raises(ModeError):
            registry.by_name("nope")

    def test_retransmission_requires_sequencing(self):
        with pytest.raises(ModeError):
            Mode(3, "broken", Feature.RETRANSMISSION)

    def test_contains(self):
        assert 0 in pilot_registry()
        assert 99 not in pilot_registry()


class TestTransition:
    def setup_method(self):
        self.registry = pilot_registry()

    def mode0_header(self):
        return MmtHeader(config_id=0, experiment_id=42)

    def test_activate_mode1(self):
        header = self.mode0_header()
        target = self.registry.by_name("age-recover")
        ctx = TransitionContext(
            now_ns=100, seq=17, buffer_addr="10.0.0.5", age_budget_ns=1000
        )
        transition(header, target, ctx)
        assert header.config_id == 1
        assert header.seq == 17
        assert header.buffer_addr == "10.0.0.5"
        assert header.age_ns == 0
        assert header.age_budget_ns == 1000
        assert not header.aged
        assert header.ack_scheme == AckScheme.NAK_ONLY
        header.validate()

    def test_missing_context_raises(self):
        header = self.mode0_header()
        target = self.registry.by_name("age-recover")
        with pytest.raises(ModeError):
            transition(header, target, TransitionContext(seq=1, age_budget_ns=5))

    def test_carried_features_keep_values(self):
        header = self.mode0_header()
        transition(
            header,
            self.registry.by_name("age-recover"),
            TransitionContext(seq=3, buffer_addr="10.0.0.5", age_budget_ns=9),
        )
        header.age_ns = 555  # aged along the way
        transition(
            header,
            self.registry.by_name("deliver-check"),
            TransitionContext(deadline_ns=10_000, notify_addr="10.0.0.9"),
        )
        assert header.seq == 3  # not re-assigned
        assert header.age_ns == 555  # preserved
        assert header.deadline_ns == 10_000
        header.validate()

    def test_buffer_addr_refreshed_when_offered(self):
        """Moving to a closer buffer rewrites the NAK target (§5.1)."""
        header = self.mode0_header()
        transition(
            header,
            self.registry.by_name("age-recover"),
            TransitionContext(seq=1, buffer_addr="10.0.0.5", age_budget_ns=9),
        )
        transition(
            header,
            self.registry.by_name("deliver-check"),
            TransitionContext(
                deadline_ns=1, notify_addr="10.0.0.9", buffer_addr="10.0.99.1"
            ),
        )
        assert header.buffer_addr == "10.0.99.1"

    def test_downgrade_clears_fields(self):
        header = self.mode0_header()
        transition(
            header,
            self.registry.by_name("age-recover"),
            TransitionContext(seq=1, buffer_addr="10.0.0.5", age_budget_ns=9),
        )
        header.aged = True
        transition(header, self.registry.by_name("identify"), TransitionContext())
        assert header.seq is None
        assert header.buffer_addr is None
        assert header.age_ns is None
        assert not header.aged
        header.validate()

    def test_flow_id_survives_every_transition(self):
        header = self.mode0_header()
        header.features |= Feature.FLOW_ID
        header.flow_id = 9
        ctx = TransitionContext(seq=1, buffer_addr="10.0.0.5", age_budget_ns=9)
        transition(header, self.registry.by_name("age-recover"), ctx)
        assert header.flow_id == 9
        assert header.features & Feature.FLOW_ID
        # Downgrading to a mode with no features keeps flow identity too.
        transition(header, self.registry.by_name("identify"), TransitionContext())
        assert header.flow_id == 9
        assert header.features & Feature.FLOW_ID
        assert header.seq is None
        header.validate()

    def test_transition_result_always_valid(self):
        registry = extended_registry()
        header = self.mode0_header()
        ctx = TransitionContext(
            now_ns=5,
            seq=1,
            buffer_addr="1.1.1.1",
            deadline_ns=10,
            notify_addr="2.2.2.2",
            age_budget_ns=3,
            pace_rate_mbps=100,
            source_addr="3.3.3.3",
            dup_group=1,
            dup_copies=2,
        )
        for mode in registry:
            fresh = self.mode0_header()
            transition(fresh, mode, ctx)
            fresh.validate()
            assert fresh.config_id == mode.config_id
