"""Mode-transition sequence properties: validity and flow identity."""

from repro.core import (
    Feature,
    MmtHeader,
    TransitionContext,
    extended_registry,
    transition,
)

from .strategies import cases

#: A context rich enough to activate any mode in the extended registry.
FULL_CONTEXT = dict(
    now_ns=5,
    seq=1,
    buffer_addr="10.1.1.1",
    deadline_ns=10_000,
    notify_addr="10.2.2.2",
    age_budget_ns=1_000,
    pace_rate_mbps=100,
    source_addr="10.3.3.3",
    dup_group=1,
    dup_copies=2,
)


def test_random_transition_sequences_stay_valid():
    """Any walk through the mode registry leaves the header valid, in
    the target mode, and with its flow identity intact.

    Flow identity is orthogonal to modes (like the experiment id): a
    tagged header stays tagged with the same flow id through every
    rewrite, and an untagged header never *gains* a tag.
    """
    registry = extended_registry()
    modes = list(registry)
    for index, gen in cases():
        tagged = gen.boolean()
        flow_id = gen.integer(0, 2**16 - 1) if tagged else None
        header = MmtHeader(config_id=0, experiment_id=gen.integer(0, 2**32 - 1))
        if tagged:
            header.features |= Feature.FLOW_ID
            header.flow_id = flow_id
        expected_key = header.flow_key

        for _step in range(gen.integer(1, 6)):
            target = gen.choice(modes)
            transition(header, target, TransitionContext(**FULL_CONTEXT))
            context = f"case {index} (seed {gen.seed}) -> {target.name}"
            header.validate()
            assert header.config_id == target.config_id, context
            assert bool(header.features & Feature.FLOW_ID) == tagged, context
            assert header.flow_id == flow_id, context
            assert header.flow_key == expected_key, context


def test_transitioned_headers_roundtrip_the_codec():
    """A header that has been through random transitions still encodes
    and decodes byte-exactly (transition never leaves half-set state)."""
    registry = extended_registry()
    modes = list(registry)
    for index, gen in cases():
        header = MmtHeader(config_id=0, experiment_id=gen.integer(0, 2**32 - 1))
        if gen.boolean():
            header.features |= Feature.FLOW_ID
            header.flow_id = gen.integer(0, 2**16 - 1)
        for _step in range(gen.integer(1, 4)):
            transition(header, gen.choice(modes), TransitionContext(**FULL_CONTEXT))
        wire = header.encode()
        assert MmtHeader.decode(wire) == header, f"case {index} (seed {gen.seed})"
