"""The MMT wire codec: byte-exactness, validation, property round-trips."""

import struct
from dataclasses import fields

import pytest
from hypothesis import given, strategies as st

from repro.core import (
    AckScheme,
    CORE_HEADER_BYTES,
    Feature,
    HeaderError,
    MmtHeader,
    MsgType,
    make_experiment_id,
    pack_ipv4,
    split_experiment_id,
    unpack_ipv4,
)
from repro.core.header import LAYOUT
from tests.core.reference_layout import EXTENSION_LAYOUT


def test_core_header_is_8_bytes():
    header = MmtHeader(config_id=1, experiment_id=5)
    data = header.encode()
    assert len(data) == CORE_HEADER_BYTES == 8
    assert header.size_bytes == 8


def test_known_byte_layout():
    header = MmtHeader(config_id=0xAB, experiment_id=0x01020304)
    data = header.encode()
    assert data[0] == 0xAB
    assert data[1:4] == b"\x00\x00\x00"  # config data word
    assert data[4:8] == b"\x01\x02\x03\x04"


def test_extension_order_and_sizes():
    header = MmtHeader(
        features=Feature.SEQUENCED | Feature.RETRANSMISSION | Feature.TIMELINESS
        | Feature.AGE_TRACKING | Feature.PACING | Feature.BACKPRESSURE
        | Feature.DUPLICATION,
        seq=7,
        buffer_addr="10.0.0.1",
        deadline_ns=123456789,
        notify_addr="10.0.0.2",
        age_ns=5,
        age_budget_ns=100,
        pace_rate_mbps=4000,
        source_addr="10.0.0.3",
        dup_group=3,
        dup_copies=2,
    )
    # 8 core + 4 + 4 + 12 + 17 + 4 + 4 + 3
    assert header.size_bytes == 56
    assert len(header.encode()) == 56


def test_flow_id_appended_after_all_other_extensions():
    base = MmtHeader(features=Feature.SEQUENCED, seq=7, experiment_id=42)
    flowed = MmtHeader(
        features=Feature.SEQUENCED | Feature.FLOW_ID,
        seq=7,
        experiment_id=42,
        flow_id=0x0102,
    )
    base_wire = base.encode()
    flow_wire = flowed.encode()
    # The flow id is the trailing 2 bytes; everything before it differs
    # from the flow-less wire only in the feature word (byte 2).
    assert len(flow_wire) == len(base_wire) + 2
    assert flow_wire[-2:] == b"\x01\x02"
    assert flow_wire[4:-2] == base_wire[4:]
    assert MmtHeader.decode(flow_wire).flow_id == 0x0102
    assert MmtHeader.decode(flow_wire).flow_key == (42, 0x0102)
    assert base.flow_key == (42, 0)


def test_flow_id_out_of_range_rejected():
    header = MmtHeader(features=Feature.FLOW_ID, flow_id=1 << 16)
    with pytest.raises(HeaderError):
        header.validate()


def test_flow_id_without_feature_rejected():
    header = MmtHeader(flow_id=3)
    with pytest.raises(HeaderError):
        header.validate()


def test_decode_rejects_trailing_bytes():
    data = MmtHeader().encode() + b"\x00"
    with pytest.raises(HeaderError):
        MmtHeader.decode(data)


def test_decode_prefix_returns_consumed():
    header = MmtHeader(features=Feature.SEQUENCED, seq=9)
    data = header.encode() + b"payload"
    decoded, consumed = MmtHeader.decode_prefix(data)
    assert consumed == header.size_bytes
    assert decoded.seq == 9


def test_truncated_core_rejected():
    with pytest.raises(HeaderError):
        MmtHeader.decode(b"\x00\x00\x00")


def test_truncated_extension_rejected():
    header = MmtHeader(features=Feature.TIMELINESS, deadline_ns=1, notify_addr="1.2.3.4")
    data = header.encode()[:-2]
    with pytest.raises(HeaderError):
        MmtHeader.decode(data)


@pytest.mark.parametrize("msg_type, ack_scheme", [
    (8, 0), (15, 0), (0, 4), (0, 15), (9, 7), (0, 5), (16, 0), (0, 16),
])
def test_decode_rejects_unknown_msg_type_or_ack_scheme(msg_type, ack_scheme):
    """Neither direction of the codec takes a value outside the enums:
    encode refuses what decode would reject."""
    with pytest.raises(HeaderError, match="is not an? (MsgType|AckScheme)"):
        MmtHeader(msg_type=msg_type, ack_scheme=ack_scheme).encode()
    if msg_type > 15 or ack_scheme > 15:
        return  # does not fit its 4-bit nibble of the wire word
    config_data = (ack_scheme << 20) | (msg_type << 16)
    data = struct.pack(">BBHI", 0, config_data >> 16, config_data & 0xFFFF, 1)
    with pytest.raises(HeaderError, match="bad configuration data"):
        MmtHeader.decode(data)


def test_aged_byte_decodes_only_from_0_or_1():
    header = MmtHeader(features=Feature.AGE_TRACKING, age_ns=1, age_budget_ns=2, aged=True)
    wire = bytearray(header.encode())
    assert wire[-1] == 1
    assert MmtHeader.decode(bytes(wire)).aged is True
    wire[-1] = 0
    assert MmtHeader.decode(bytes(wire)).aged is False
    for byte in (2, 3, 0x80, 0xFF):
        wire[-1] = byte
        with pytest.raises(HeaderError, match=f"aged flag byte is {byte}"):
            MmtHeader.decode(bytes(wire))


def test_aged_flag_other_than_0_or_1_is_not_encoded():
    header = MmtHeader(features=Feature.AGE_TRACKING, age_ns=1, age_budget_ns=2, aged=2)
    with pytest.raises(HeaderError, match="aged flag is 2"):
        header.encode()


def test_header_fields_follow_the_layout_table():
    """After the five core fields, the header's attributes are LAYOUT's
    fields in LAYOUT's order (``copy`` passes them positionally)."""
    names = [f.name for f in fields(MmtHeader) if f.init]
    assert names[:5] == ["config_id", "features", "msg_type", "ack_scheme", "experiment_id"]
    assert names[5:] == [row.name for row in LAYOUT]


def test_validation_field_without_feature():
    header = MmtHeader(seq=5)  # SEQUENCED not set
    with pytest.raises(HeaderError):
        header.validate()


def test_validation_feature_without_field():
    header = MmtHeader(features=Feature.RETRANSMISSION | Feature.SEQUENCED, seq=1)
    with pytest.raises(HeaderError):
        header.validate()  # buffer_addr missing


def test_aged_flag_requires_age_tracking():
    header = MmtHeader(aged=True)
    with pytest.raises(HeaderError):
        header.validate()


def test_copy_is_deep_enough():
    header = MmtHeader(features=Feature.SEQUENCED, seq=1)
    clone = header.copy()
    clone.seq = 99
    assert header.seq == 1


class TestIpv4Codec:
    def test_roundtrip(self):
        assert unpack_ipv4(pack_ipv4("192.168.1.254")) == "192.168.1.254"

    def test_known_value(self):
        assert pack_ipv4("10.0.0.1") == 0x0A000001

    def test_bad_addresses(self):
        for bad in ("10.0.0", "10.0.0.256", "a.b.c.d"):
            with pytest.raises(HeaderError):
                pack_ipv4(bad)

    def test_out_of_range_int(self):
        with pytest.raises(HeaderError):
            unpack_ipv4(1 << 32)


class TestExperimentId:
    def test_split_roundtrip(self):
        eid = make_experiment_id(1234, 56)
        assert split_experiment_id(eid) == (1234, 56)

    def test_header_properties(self):
        header = MmtHeader(experiment_id=make_experiment_id(7, 3))
        assert header.experiment == 7
        assert header.slice_id == 3

    def test_range_checks(self):
        with pytest.raises(HeaderError):
            make_experiment_id(1 << 24, 0)
        with pytest.raises(HeaderError):
            make_experiment_id(0, 256)


# -- property-based round trip ------------------------------------------------

octet = st.integers(0, 255)
ipv4 = st.builds(lambda a, b, c, d: f"{a}.{b}.{c}.{d}", octet, octet, octet, octet)


@st.composite
def headers(draw):
    features = Feature(draw(st.integers(0, sum(Feature))))
    header = MmtHeader(
        config_id=draw(st.integers(0, 255)),
        features=features,
        msg_type=draw(st.sampled_from(list(MsgType))),
        ack_scheme=draw(st.sampled_from(list(AckScheme))),
        experiment_id=draw(st.integers(0, 2**32 - 1)),
    )
    if features & Feature.SEQUENCED:
        header.seq = draw(st.integers(0, 2**32 - 1))
    if features & Feature.RETRANSMISSION:
        header.buffer_addr = draw(ipv4)
    if features & Feature.TIMELINESS:
        header.deadline_ns = draw(st.integers(0, 2**64 - 1))
        header.notify_addr = draw(ipv4)
    if features & Feature.AGE_TRACKING:
        header.age_ns = draw(st.integers(0, 2**64 - 1))
        header.age_budget_ns = draw(st.integers(0, 2**64 - 1))
        header.aged = draw(st.booleans())
    if features & Feature.PACING:
        header.pace_rate_mbps = draw(st.integers(0, 2**32 - 1))
    if features & Feature.BACKPRESSURE:
        header.source_addr = draw(ipv4)
    if features & Feature.DUPLICATION:
        header.dup_group = draw(st.integers(0, 2**16 - 1))
        header.dup_copies = draw(st.integers(0, 255))
    if features & Feature.FLOW_ID:
        header.flow_id = draw(st.integers(0, 2**16 - 1))
    return header


@given(header=headers())
def test_encode_decode_roundtrip(header):
    data = header.encode()
    assert len(data) == header.size_bytes
    decoded = MmtHeader.decode(data)
    assert decoded == header


@given(header=headers())
def test_size_matches_declared_layout(header):
    expected = CORE_HEADER_BYTES
    for feature, ext in EXTENSION_LAYOUT:
        if header.features & feature:
            expected += ext
    assert header.size_bytes == expected
