"""Fast-path codec equivalence: precompiled Structs vs the reference.

The codec in :mod:`repro.core.header` was rewritten from a
loop-and-pack implementation to a table of precompiled
:class:`struct.Struct` objects (one per extension-feature combination).
This module retains the original loop-based encoder/decoder verbatim as
the *reference implementation* and sweeps every one of the 256
extension-feature combinations (and non-size-bearing bits on top)
through both, so any divergence in layout, sizing, or field order fails
here before it can corrupt a wire trace.

Also pins the validate-once contract of ``encode()``, and the
straight-line ``validate()`` against the original per-feature checks
(same verdict, same message, for every combination and single fault).
"""

import struct

import pytest

from repro.core import Feature, MmtHeader
from repro.core.features import CONFIG_DATA_MAX, pack_config_data, unpack_config_data
from repro.core.header import (
    _CODECS,
    _EXT_MASK,
    _EXT_SEGMENTS,
    CORE_HEADER_BYTES,
    HeaderError,
    pack_ipv4,
    unpack_ipv4,
)
from repro.core.modes import Mode, ModeError, TransitionContext, transition

# -- reference implementation (retained from the pre-fast-path codec) ---------


def reference_encode(header: MmtHeader) -> bytes:
    """The original loop-and-pack encoder, kept byte-for-byte."""
    header.validate()
    config_data = pack_config_data(header.features, header.msg_type, header.ack_scheme)
    if config_data > CONFIG_DATA_MAX:
        raise HeaderError(f"config data overflow: {config_data:#x}")
    out = bytearray()
    out += struct.pack(
        ">BBH I",
        header.config_id,
        (config_data >> 16) & 0xFF,
        config_data & 0xFFFF,
        header.experiment_id,
    )
    if header.has(Feature.SEQUENCED):
        out += struct.pack(">I", header.seq & 0xFFFFFFFF)
    if header.has(Feature.RETRANSMISSION):
        out += struct.pack(">I", pack_ipv4(header.buffer_addr))
    if header.has(Feature.TIMELINESS):
        out += struct.pack(">QI", header.deadline_ns, pack_ipv4(header.notify_addr))
    if header.has(Feature.AGE_TRACKING):
        out += struct.pack(
            ">QQB", header.age_ns, header.age_budget_ns, 1 if header.aged else 0
        )
    if header.has(Feature.PACING):
        out += struct.pack(">I", header.pace_rate_mbps)
    if header.has(Feature.BACKPRESSURE):
        out += struct.pack(">I", pack_ipv4(header.source_addr))
    if header.has(Feature.DUPLICATION):
        out += struct.pack(">HB", header.dup_group, header.dup_copies)
    if header.has(Feature.FLOW_ID):
        out += struct.pack(">H", header.flow_id)
    return bytes(out)


def reference_decode(data: bytes) -> tuple[MmtHeader, int]:
    """The original sequential-take decoder, kept byte-for-byte."""
    if len(data) < CORE_HEADER_BYTES:
        raise HeaderError(f"truncated core header: {len(data)} bytes")
    config_id, data_hi, data_lo, experiment_id = struct.unpack(
        ">BBH I", data[:CORE_HEADER_BYTES]
    )
    config_data = (data_hi << 16) | data_lo
    features, msg_type, ack_scheme = unpack_config_data(config_data)
    header = MmtHeader(
        config_id=config_id,
        features=features,
        msg_type=msg_type,
        ack_scheme=ack_scheme,
        experiment_id=experiment_id,
    )
    offset = CORE_HEADER_BYTES

    def take(count: int) -> bytes:
        nonlocal offset
        if len(data) < offset + count:
            raise HeaderError("truncated extension field")
        chunk = data[offset : offset + count]
        offset += count
        return chunk

    if header.has(Feature.SEQUENCED):
        (header.seq,) = struct.unpack(">I", take(4))
    if header.has(Feature.RETRANSMISSION):
        header.buffer_addr = unpack_ipv4(struct.unpack(">I", take(4))[0])
    if header.has(Feature.TIMELINESS):
        deadline, notify = struct.unpack(">QI", take(12))
        header.deadline_ns = deadline
        header.notify_addr = unpack_ipv4(notify)
    if header.has(Feature.AGE_TRACKING):
        age, budget, flags = struct.unpack(">QQB", take(17))
        header.age_ns = age
        header.age_budget_ns = budget
        header.aged = bool(flags & 1)
    if header.has(Feature.PACING):
        (header.pace_rate_mbps,) = struct.unpack(">I", take(4))
    if header.has(Feature.BACKPRESSURE):
        header.source_addr = unpack_ipv4(struct.unpack(">I", take(4))[0])
    if header.has(Feature.DUPLICATION):
        header.dup_group, header.dup_copies = struct.unpack(">HB", take(3))
    if header.has(Feature.FLOW_ID):
        (header.flow_id,) = struct.unpack(">H", take(2))
    header.validate()
    return header, offset


# -- combination sweep --------------------------------------------------------

EXT_FEATURES = (
    Feature.SEQUENCED,
    Feature.RETRANSMISSION,
    Feature.TIMELINESS,
    Feature.AGE_TRACKING,
    Feature.PACING,
    Feature.BACKPRESSURE,
    Feature.DUPLICATION,
    Feature.FLOW_ID,
)

#: Bits that carry no extension bytes; mixed in to check sizing ignores them.
SIZELESS_BITS = (Feature.NONE, Feature.FLOW_CONTROL | Feature.ENCRYPTED)


def make_header(features: Feature, salt: int = 0) -> MmtHeader:
    """A header with every active feature's fields set to distinct values."""
    header = MmtHeader(
        config_id=(5 + salt) & 0xFF,
        features=features,
        experiment_id=0xDEAD0000 | (salt & 0xFFFF),
    )
    if features & Feature.SEQUENCED:
        header.seq = 0x01020304 + salt
    if features & Feature.RETRANSMISSION:
        header.buffer_addr = "10.0.0.1"
    if features & Feature.TIMELINESS:
        header.deadline_ns = 0x1122334455667788
        header.notify_addr = "10.0.0.2"
    if features & Feature.AGE_TRACKING:
        header.age_ns = 0x0102030405060708
        header.age_budget_ns = 5_000_000
        header.aged = bool(salt & 1)
    if features & Feature.PACING:
        header.pace_rate_mbps = 40_000 + salt
    if features & Feature.BACKPRESSURE:
        header.source_addr = "10.0.0.3"
    if features & Feature.DUPLICATION:
        header.dup_group = 0x0A0B
        header.dup_copies = 3
    if features & Feature.FLOW_ID:
        header.flow_id = 0x0C0D ^ (salt & 0xFF)
    return header


def all_combinations():
    for combo in range(1 << len(EXT_FEATURES)):
        features = Feature.NONE
        for index, feature in enumerate(EXT_FEATURES):
            if combo & (1 << index):
                features |= feature
        yield features


def test_sweep_all_256_combinations_match_reference():
    seen = 0
    for features in all_combinations():
        for extra_bits in SIZELESS_BITS:
            header = make_header(features | extra_bits, salt=seen & 0xFF)
            wire = header.encode()
            assert wire == reference_encode(header), f"encode diverged: {features!r}"
            assert header.size_bytes == len(wire)

            decoded = MmtHeader.decode(wire)
            ref_decoded, consumed = reference_decode(wire)
            assert consumed == len(wire)
            assert decoded == ref_decoded
            assert decoded == header
        seen += 1
    assert seen == 256


def test_decode_prefix_consumed_matches_reference_for_all_combinations():
    payload = b"\xaa" * 11
    for features in all_combinations():
        header = make_header(features)
        wire = header.encode()
        fast, fast_consumed = MmtHeader.decode_prefix(wire + payload)
        _ref, ref_consumed = reference_decode(wire + payload)
        assert fast_consumed == ref_consumed == len(wire)
        assert fast == header


def test_codec_table_covers_every_extension_combination():
    assert len(_CODECS) == 256
    # SEQ(1)|RETX(2)|TIME(4)|AGE(8)|PACE(16)|BP(128)|DUP(256)|FLOW(1024)
    assert _EXT_MASK == 0x59F
    # The raw segment table must mirror the Feature enum and the
    # documented extension layout, in order.
    layout = MmtHeader._EXTENSION_LAYOUT
    assert [(bit, size) for bit, _fmt, size in _EXT_SEGMENTS] == [
        (int(feature), size) for feature, size in layout
    ]
    for bits, codec in _CODECS.items():
        assert codec.struct.size == codec.size
        assert bits & ~_EXT_MASK == 0


def test_truncated_extension_rejected_like_reference():
    header = make_header(Feature.SEQUENCED | Feature.AGE_TRACKING)
    wire = header.encode()
    for cut in (CORE_HEADER_BYTES, len(wire) - 1):
        with pytest.raises(HeaderError):
            MmtHeader.decode(wire[:cut])
        with pytest.raises(HeaderError):
            reference_decode(wire[:cut])


# -- validate-once ------------------------------------------------------------


def test_encode_validates_once_per_configuration(monkeypatch):
    calls = []
    real_validate = MmtHeader.validate

    def counting_validate(self):
        calls.append(1)
        real_validate(self)

    monkeypatch.setattr(MmtHeader, "validate", counting_validate)
    header = MmtHeader(features=Feature.SEQUENCED, seq=1)
    header.encode()
    header.encode()
    assert len(calls) == 1  # second encode reuses the cached verdict

    header.seq = 2  # trusted value rewrite: no re-validation
    header.encode()
    assert len(calls) == 1

    header.features = Feature.NONE  # features rewrite: verdict is stale
    header.seq = None
    header.encode()
    assert len(calls) == 2

    header.encode(validate=True)  # forced
    assert len(calls) == 3
    header.encode(validate=False)  # skipped even though forced above
    assert len(calls) == 3


def test_encode_default_still_rejects_invalid_new_configuration():
    header = MmtHeader(features=Feature.SEQUENCED, seq=1)
    header.encode()
    header.features = Feature.SEQUENCED | Feature.RETRANSMISSION  # no buffer_addr
    with pytest.raises(HeaderError):
        header.encode()

# -- validate(): straight-line checks vs the retained reference ----------------


def reference_validate(header: MmtHeader) -> None:
    """The original per-feature ``_check(**fields)`` validation, kept
    verbatim as the oracle for the straight-line rewrite."""

    def check(feature: Feature, **fields: object) -> None:
        active = header.has(feature)
        for name, value in fields.items():
            if active and value is None:
                raise HeaderError(f"{feature.name} active but {name} is unset")
            if not active and value is not None:
                raise HeaderError(f"{name} set but {feature.name} inactive")

    if not 0 <= header.config_id <= 0xFF:
        raise HeaderError(f"config_id out of range: {header.config_id}")
    if not 0 <= header.experiment_id <= 0xFFFFFFFF:
        raise HeaderError(f"experiment_id out of range: {header.experiment_id}")
    check(Feature.SEQUENCED, seq=header.seq)
    check(Feature.RETRANSMISSION, buffer_addr=header.buffer_addr)
    check(
        Feature.TIMELINESS,
        deadline_ns=header.deadline_ns,
        notify_addr=header.notify_addr,
    )
    check(
        Feature.AGE_TRACKING,
        age_ns=header.age_ns,
        age_budget_ns=header.age_budget_ns,
    )
    check(Feature.PACING, pace_rate_mbps=header.pace_rate_mbps)
    check(Feature.BACKPRESSURE, source_addr=header.source_addr)
    check(Feature.DUPLICATION, dup_group=header.dup_group, dup_copies=header.dup_copies)
    check(Feature.FLOW_ID, flow_id=header.flow_id)
    if header.flow_id is not None and not 0 <= header.flow_id <= 0xFFFF:
        raise HeaderError(f"flow_id out of range: {header.flow_id}")
    if header.aged and not header.has(Feature.AGE_TRACKING):
        raise HeaderError("aged flag set without AGE_TRACKING")


#: Every optional extension field with a value to plant when its
#: feature is inactive ("excess").
EXTENSION_FIELDS = {
    "seq": 1,
    "buffer_addr": "10.9.9.9",
    "deadline_ns": 2,
    "notify_addr": "10.9.9.8",
    "age_ns": 0,
    "age_budget_ns": 3,
    "pace_rate_mbps": 4,
    "source_addr": "10.9.9.7",
    "dup_group": 5,
    "dup_copies": 0,
    "flow_id": 6,
}


def verdict(check, header: MmtHeader) -> str | None:
    try:
        check(header)
    except HeaderError as exc:
        return str(exc)
    return None


def assert_same_verdict(header: MmtHeader, *, valid: bool) -> None:
    expected = verdict(reference_validate, header)
    assert verdict(MmtHeader.validate, header) == expected
    assert (expected is None) == valid, expected


def test_validate_matches_reference_for_every_combination_and_single_fault():
    faults = 0
    for features in all_combinations():
        for extra_bits in SIZELESS_BITS:
            assert_same_verdict(make_header(features | extra_bits), valid=True)
        for name, planted in EXTENSION_FIELDS.items():
            header = make_header(features)
            omission = getattr(header, name) is not None
            setattr(header, name, None if omission else planted)
            assert_same_verdict(header, valid=False)
            faults += 1
        # Two faults at once: the first in field order is the one reported.
        header = make_header(features)
        header.seq = None if header.seq is not None else 1
        header.flow_id = None if header.flow_id is not None else 6
        assert_same_verdict(header, valid=False)
    assert faults == 256 * 11


@pytest.mark.parametrize(
    "field, value",
    [
        ("config_id", -1), ("config_id", 0x100),
        ("experiment_id", -1), ("experiment_id", 1 << 32),
        ("flow_id", -1), ("flow_id", 0x10000),
        ("aged", True),
    ],
)
def test_validate_range_and_flag_checks_match_reference(field, value):
    features = Feature.FLOW_ID if field == "flow_id" else Feature.SEQUENCED
    header = make_header(features)
    setattr(header, field, value)
    assert_same_verdict(header, valid=False)
    # Range faults are reported before presence faults, as before.
    header.seq = None if header.seq is not None else 1
    assert_same_verdict(header, valid=False)


def test_validate_still_runs_at_every_construction_boundary(monkeypatch):
    calls = []
    real_validate = MmtHeader.validate

    def counting_validate(self):
        calls.append(1)
        real_validate(self)

    monkeypatch.setattr(MmtHeader, "validate", counting_validate)
    wire = make_header(Feature.SEQUENCED | Feature.AGE_TRACKING).encode()
    assert len(calls) == 1
    decoded, _consumed = MmtHeader.decode_prefix(wire)
    assert len(calls) == 2  # decode_prefix validates what it built ...
    decoded.encode()
    assert len(calls) == 2  # ... and leaves the verdict for encode()

    mode = Mode(config_id=9, name="plain", features=Feature.NONE)
    transition(decoded, mode, TransitionContext())
    assert len(calls) == 3  # transition() validates its rewrite
    decoded.encode()
    assert len(calls) == 3


def test_transition_rejects_an_inconsistent_header():
    header = MmtHeader(features=Feature.NONE)
    header.pace_rate_mbps = 5  # a trusted rewrite gone wrong: no PACING bit
    mode = Mode(config_id=9, name="plain", features=Feature.NONE)
    with pytest.raises(ModeError, match="pace_rate_mbps set but PACING inactive"):
        transition(header, mode, TransitionContext())
    with pytest.raises(HeaderError, match="pace_rate_mbps set but PACING inactive"):
        header.encode()
