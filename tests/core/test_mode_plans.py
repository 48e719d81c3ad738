"""Planned mode rewrites and sender headers vs the code they replaced.

:func:`repro.core.modes.transition` looks up, per ``(old feature word,
target feature word)``, which context values it needs, which fields it
clears and which it initialises; :class:`~repro.core.MmtSender` works
out what its mode's headers start from when it enters the mode. The
per-packet bodies both replaced are retained below verbatim as
references and swept against them: every ordered pair of registry
modes, with and without a flow id, with each context value missing;
every registry mode's header, with and without a flow id, a buffer
directory and a local buffer.
"""

import itertools

import pytest

from repro.core import BufferDirectory, Feature, MmtHeader, MmtStack, MsgType
from repro.core.header import FEATURE_FIELDS, HeaderError
from repro.core.modes import (
    _REQUIRED_CONTEXT,
    Mode,
    ModeError,
    TransitionContext,
    extended_registry,
    transition,
)
from repro.core.seqspace import wrap

MODES = list(extended_registry())

# -- transition(): the reference, as it stood before it was planned -----------

_SEQUENCED = int(Feature.SEQUENCED)
_RETRANSMISSION = int(Feature.RETRANSMISSION)
_TIMELINESS = int(Feature.TIMELINESS)
_AGE_TRACKING = int(Feature.AGE_TRACKING)
_PACING = int(Feature.PACING)
_BACKPRESSURE = int(Feature.BACKPRESSURE)
_DUPLICATION = int(Feature.DUPLICATION)
_FLOW_ID = int(Feature.FLOW_ID)


def reference_transition(header: MmtHeader, target: Mode, ctx: TransitionContext) -> MmtHeader:
    old_features = header.features
    new_features = target.features
    if int(old_features) & _FLOW_ID:
        new_features |= Feature.FLOW_ID

    # Plain ints: the bit tests below then run at C speed instead of
    # round-tripping through IntFlag.__and__ on every transition.
    old_bits = int(old_features)
    new_bits = int(new_features)
    activated = new_bits & ~old_bits
    deactivated = old_bits & ~new_bits

    for feature, fields in _REQUIRED_CONTEXT.items():
        if not activated & feature._value_:
            continue
        for name in fields:
            if getattr(ctx, name) is None:
                raise ModeError(
                    f"transition to {target.name!r} activates {feature.name} "
                    f"but ctx.{name} is unset"
                )

    # Clear fields of deactivated features first (FLOW_ID never is).
    for feature, fields in FEATURE_FIELDS.items():
        if deactivated & feature._value_:
            for name in fields:
                setattr(header, name, None)
            if feature is Feature.AGE_TRACKING:
                header.aged = False

    # Initialize newly activated features.
    if activated & _SEQUENCED:
        header.seq = ctx.seq
    if activated & _RETRANSMISSION:
        header.buffer_addr = ctx.buffer_addr
    if activated & _TIMELINESS:
        header.deadline_ns = ctx.deadline_ns
        header.notify_addr = ctx.notify_addr
    if activated & _AGE_TRACKING:
        header.age_ns = 0
        header.age_budget_ns = ctx.age_budget_ns
        header.aged = False
    if activated & _PACING:
        header.pace_rate_mbps = ctx.pace_rate_mbps
    if activated & _BACKPRESSURE:
        header.source_addr = ctx.source_addr
    if activated & _DUPLICATION:
        header.dup_group = ctx.dup_group
        header.dup_copies = ctx.dup_copies

    # Refresh the NAK target to the nearest buffer when one is offered.
    if (new_bits & _RETRANSMISSION) and ctx.buffer_addr is not None:
        header.buffer_addr = ctx.buffer_addr

    header.config_id = target.config_id
    header.features = new_features
    header.ack_scheme = target.ack_scheme
    try:
        header.validate()
    except HeaderError as exc:
        raise ModeError(f"transition produced invalid header: {exc}") from exc
    return header


CONTEXT = dict(
    now_ns=1_000, seq=77, buffer_addr="10.0.0.9", deadline_ns=9_000, notify_addr="10.0.0.8",
    age_budget_ns=5_000, pace_rate_mbps=400, source_addr="10.0.0.7", dup_group=3, dup_copies=2,
)
FIELDS = [name for name in MmtHeader.__dataclass_fields__]


def header_in(mode: Mode, flow_id: int | None) -> MmtHeader:
    """A valid, mid-life header of ``mode`` (nothing at its default)."""
    header = MmtHeader(experiment_id=42 << 8, msg_type=MsgType.DATA)
    reference_transition(header, mode, TransitionContext(**{
        **CONTEXT, "seq": 11, "buffer_addr": "10.1.1.1", "notify_addr": "10.1.1.2",
        "source_addr": "10.1.1.3", "age_budget_ns": 123, "pace_rate_mbps": 50,
    }))
    if mode.has(Feature.AGE_TRACKING):
        header.age_ns, header.aged = 456, True
    if flow_id is not None:
        header.features |= Feature.FLOW_ID
        header.flow_id = flow_id
    header.validate()
    return header


def outcome(rewrite, header: MmtHeader, target: Mode, ctx: TransitionContext):
    try:
        rewrite(header, target, ctx)
        error = None
    except ModeError as exc:
        error = str(exc)
    return error, {name: getattr(header, name) for name in FIELDS}


@pytest.mark.parametrize("flow_id", [None, 5])
def test_planned_transition_matches_reference_for_every_mode_pair(flow_id):
    missing_choices = [None, *(name for name in CONTEXT if name != "now_ns")]
    for source, target, missing in itertools.product(MODES, MODES, missing_choices):
        ctx_values = {**CONTEXT, **({missing: None} if missing else {})}
        expected = outcome(
            reference_transition, header_in(source, flow_id), target,
            TransitionContext(**ctx_values),
        )
        actual = outcome(
            transition, header_in(source, flow_id), target, TransitionContext(**ctx_values)
        )
        assert actual == expected, f"{source.name} -> {target.name}, ctx.{missing} unset"
        if expected[0] is not None:
            # A refused rewrite leaves the header as it arrived.
            untouched = header_in(source, flow_id)
            assert actual[1] == {name: getattr(untouched, name) for name in FIELDS}


def test_the_sweep_exercises_refusals_and_flow_identity():
    """Guards the sweep above against going vacuous."""
    plain, recover = MODES[0], MODES[1]
    error, _ = outcome(
        transition, header_in(plain, None), recover,
        TransitionContext(**{**CONTEXT, "seq": None}),
    )
    assert error == "transition to 'age-recover' activates SEQUENCED but ctx.seq is unset"
    _, fields = outcome(transition, header_in(recover, 5), plain, TransitionContext())
    assert fields["flow_id"] == 5 and fields["features"] == Feature.FLOW_ID
    assert fields["seq"] is None and fields["aged"] is False


# -- MmtSender._build_header: the reference, one Mode.has per feature ---------


def reference_build_header(sender, msg_type: MsgType = MsgType.DATA) -> MmtHeader:
    features = sender.mode.features
    if sender.flow_id is not None:
        features |= Feature.FLOW_ID
    header = MmtHeader(
        config_id=sender.mode.config_id,
        features=features,
        msg_type=msg_type,
        ack_scheme=sender.mode.ack_scheme,
        experiment_id=sender.experiment_id,
        flow_id=sender.flow_id,
    )
    if sender.mode.has(Feature.SEQUENCED):
        header.seq = wrap(sender._next_seq)
    if sender.mode.has(Feature.RETRANSMISSION):
        addr = sender.stack.host.ip if sender.buffer_local else "0.0.0.0"
        if sender.directory is not None:
            live = sender.directory.failover_for(sender.experiment_id, sender.path_position)
            if live is not None:
                addr = live.address
        header.buffer_addr = addr
    if sender.mode.has(Feature.TIMELINESS):
        header.deadline_ns = sender.sim.now + sender.deadline_offset_ns
        header.notify_addr = sender.notify_addr
    if sender.mode.has(Feature.AGE_TRACKING):
        header.age_ns = 0
        header.age_budget_ns = sender.age_budget_ns
    if sender.mode.has(Feature.PACING):
        header.pace_rate_mbps = sender.pace_rate_mbps
    if sender.mode.has(Feature.BACKPRESSURE):
        header.source_addr = sender.stack.host.ip
    if sender.mode.has(Feature.DUPLICATION):
        header.dup_group = sender.experiment_id & 0xFFFF
        header.dup_copies = 1
    return header


def make_sender(rig, mode: Mode, flow_id, with_directory: bool, buffer_local: bool):
    stack = MmtStack(rig.a, registry=extended_registry())
    if buffer_local:
        stack.attach_buffer(1_000_000)
    directory = None
    if with_directory:
        directory = BufferDirectory()
        directory.register("10.0.2.2", path_position=1)
    return stack.create_sender(
        experiment_id=42 << 8, mode=mode, dst_ip=rig.b.ip, flow_id=flow_id,
        directory=directory, buffer_local=buffer_local,
        pace_rate_mbps=400, deadline_offset_ns=7_000, notify_addr="10.0.0.8",
        age_budget_ns=5_000,
    )


def assert_headers_match(sender) -> None:
    for msg_type in (MsgType.DATA, MsgType.HEARTBEAT):
        assert sender._build_header(msg_type) == reference_build_header(sender, msg_type), (
            f"mode {sender.mode.name}, flow_id {sender.flow_id}, {msg_type.name}"
        )


@pytest.mark.parametrize("mode", MODES, ids=lambda mode: mode.name)
@pytest.mark.parametrize("flow_id", [None, 5])
@pytest.mark.parametrize("with_directory", [False, True])
@pytest.mark.parametrize("buffer_local", [False, True])
def test_sender_header_matches_reference(rig, mode, flow_id, with_directory, buffer_local):
    sender = make_sender(rig, mode, flow_id, with_directory, buffer_local)
    assert_headers_match(sender)
    sender._next_seq = 0xFFFF_FFFF + 3  # wire value wraps
    assert_headers_match(sender)
    # Entering another mode re-derives what headers start from.
    for other in MODES:
        sender.set_mode(other)
        assert_headers_match(sender)
