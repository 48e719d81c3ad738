"""Train codec equivalence: batched encode/decode vs the reference.

:mod:`repro.core.train` packs whole packet trains with one repeated
:class:`struct.Struct` call. This module pins the byte-identity
contract against the retained loop-and-pack reference codec from
:mod:`tests.core.test_header_fastpath` across every extension-feature
combination, and pins that a 1-packet train is byte-identical to the
single-packet fast path — so the train path can never move a golden
wire digest.
"""

import pytest

from repro.core import Feature, MmtHeader, MsgType
from repro.core.header import HeaderError
from repro.core.train import TrainBuffer, decode_train, encode_train, train_size_bytes
from tests.core.test_header_fastpath import (
    EXT_FEATURES,
    all_combinations,
    make_header,
    reference_decode,
    reference_encode,
)

WIRE_FIELDS = (
    "config_id",
    "features",
    "msg_type",
    "ack_scheme",
    "experiment_id",
    "seq",
    "buffer_addr",
    "deadline_ns",
    "notify_addr",
    "age_ns",
    "age_budget_ns",
    "aged",
    "pace_rate_mbps",
    "source_addr",
    "dup_group",
    "dup_copies",
    "flow_id",
)


def assert_headers_equal(actual: MmtHeader, expected: MmtHeader) -> None:
    for name in WIRE_FIELDS:
        assert getattr(actual, name) == getattr(expected, name), name


def make_train(features: Feature, count: int) -> list[MmtHeader]:
    return [make_header(features, salt=index) for index in range(count)]


# -- byte identity across every extension combination -------------------------


def test_sweep_all_combinations_match_reference_concatenation():
    """A homogeneous train is exactly per-header reference bytes, joined."""
    for combo, features in enumerate(all_combinations()):
        train = make_train(features, count=4)
        wire = encode_train(train)
        expected = b"".join(reference_encode(header) for header in train)
        assert bytes(wire) == expected, f"encode diverged: {features!r}"
        assert train_size_bytes(train) == len(expected)

        decoded = decode_train(bytes(wire))
        assert len(decoded) == len(train)
        for actual, original in zip(decoded, train):
            assert_headers_equal(actual, original)
        # Decoded headers land in the validate-once state, so re-encoding
        # them pays no validation and reproduces the same bytes.
        assert bytes(encode_train(decoded)) == expected
        for header in decoded:
            assert header._validated


def test_decode_train_matches_reference_decode_field_for_field():
    for features in all_combinations():
        train = make_train(features, count=3)
        wire = bytes(encode_train(train))
        decoded = decode_train(wire)
        position = 0
        for actual in decoded:
            expected, consumed = reference_decode(wire[position:])
            position += consumed
            assert_headers_equal(actual, expected)
        assert position == len(wire)


def test_one_packet_train_is_byte_identical_to_single_packet_path():
    for features in all_combinations():
        header = make_header(features, salt=9)
        assert bytes(encode_train([header])) == header.encode()
        (decoded,) = decode_train(header.encode())
        prefix, consumed = MmtHeader.decode_prefix(header.encode())
        assert consumed == header.size_bytes
        assert_headers_equal(decoded, prefix)
        assert decoded._validated and prefix._validated


# -- heterogeneous trains ------------------------------------------------------


def test_heterogeneous_train_round_trips():
    """Mixed feature bits fall back run-by-run but stay byte-identical."""
    combos = [
        Feature.NONE,
        Feature.SEQUENCED,
        Feature.SEQUENCED,  # adjacent run of two
        Feature.SEQUENCED | Feature.AGE_TRACKING,
        Feature.TIMELINESS | Feature.FLOW_ID,
        Feature.NONE,
    ]
    train = [make_header(bits, salt=index) for index, bits in enumerate(combos)]
    wire = encode_train(train)
    expected = b"".join(reference_encode(header) for header in train)
    assert bytes(wire) == expected
    assert train_size_bytes(train) == len(expected)

    decoded = decode_train(bytes(wire))
    assert len(decoded) == len(train)
    for actual, original in zip(decoded, train):
        assert_headers_equal(actual, original)


def test_mixed_msg_types_within_one_feature_mode():
    """config-word differences that carry no extra bytes stay per-header."""
    train = make_train(Feature.SEQUENCED, count=4)
    train[2].msg_type = MsgType.HEARTBEAT
    wire = bytes(encode_train(train))
    assert wire == b"".join(reference_encode(header) for header in train)
    decoded = decode_train(wire)
    assert decoded[2].msg_type is MsgType.HEARTBEAT
    for actual, original in zip(decoded, train):
        assert_headers_equal(actual, original)


# -- buffers, offsets, counts --------------------------------------------------


def test_encode_into_preallocated_bytearray_at_offset():
    train = make_train(Feature.SEQUENCED | Feature.AGE_TRACKING, count=5)
    expected = b"".join(reference_encode(header) for header in train)
    buffer = bytearray(16 + len(expected) + 7)
    wire = encode_train(train, buffer, offset=16)
    assert wire.nbytes == len(expected)
    assert bytes(wire) == expected
    assert bytes(buffer[16 : 16 + len(expected)]) == expected


def test_undersized_buffer_is_rejected():
    train = make_train(Feature.SEQUENCED, count=4)
    needed = train_size_bytes(train)
    with pytest.raises(HeaderError, match="train needs"):
        encode_train(train, bytearray(needed - 1))
    with pytest.raises(HeaderError, match="train needs"):
        encode_train(train, bytearray(needed), offset=1)


def test_train_buffer_reuse_grows_and_reuses_storage():
    pool = TrainBuffer(capacity=8)
    small = make_train(Feature.SEQUENCED, count=2)
    big = make_train(Feature.SEQUENCED | Feature.TIMELINESS, count=64)

    wire = encode_train(small, pool)
    assert bytes(wire) == b"".join(reference_encode(h) for h in small)
    grown = encode_train(big, pool)
    assert bytes(grown) == b"".join(reference_encode(h) for h in big)
    assert len(pool.data) >= grown.nbytes

    # Steady state: same-shape train reuses the backing storage.
    backing = pool.data
    again = encode_train(big, pool)
    assert pool.data is backing
    assert bytes(again) == bytes(grown)


def test_decode_with_count_leaves_trailing_payload_alone():
    train = make_train(Feature.SEQUENCED, count=3)
    wire = bytes(encode_train(train)) + b"\xaa" * 100  # train payload
    decoded = decode_train(wire, count=3)
    assert len(decoded) == 3
    for actual, original in zip(decoded, train):
        assert_headers_equal(actual, original)


def test_empty_train():
    assert bytes(encode_train([])) == b""
    assert decode_train(b"") == []
    assert train_size_bytes([]) == 0


# -- error paths ---------------------------------------------------------------


def test_truncated_core_header_raises():
    train = make_train(Feature.SEQUENCED, count=2)
    wire = bytes(encode_train(train))
    with pytest.raises(HeaderError, match="truncated"):
        decode_train(wire[:-9])  # cuts into the second header's core


def test_truncated_extension_raises():
    header = make_header(Feature.TIMELINESS, salt=1)
    wire = header.encode()
    with pytest.raises(HeaderError, match="truncated"):
        decode_train(wire[:-2])


def test_trailing_bytes_without_count_raise():
    train = make_train(Feature.NONE, count=2)
    wire = bytes(encode_train(train))
    with pytest.raises(HeaderError, match="truncated"):
        decode_train(wire + b"\x00" * 3)


def test_count_larger_than_data_raises():
    header = make_header(Feature.SEQUENCED, salt=0)
    with pytest.raises(HeaderError, match="truncated"):
        decode_train(header.encode(), count=2)


def test_sweep_covers_all_extension_features():
    assert len(EXT_FEATURES) == 8  # 256 combos swept above
