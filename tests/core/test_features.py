"""Configuration-data word packing."""

import pytest
from hypothesis import given, strategies as st

from repro.core import (
    AckScheme,
    Feature,
    MsgType,
    pack_config_data,
    unpack_config_data,
)
from repro.core.features import MSG_TYPE_NAMES


def test_word_is_24_bits():
    word = pack_config_data(Feature(sum(Feature)), MsgType.MODE_ANNOUNCE, AckScheme.HOP_BY_HOP)
    assert 0 <= word < (1 << 24)


def test_roundtrip_simple():
    word = pack_config_data(
        Feature.SEQUENCED | Feature.RETRANSMISSION, MsgType.NAK, AckScheme.NAK_ONLY
    )
    features, msg_type, ack = unpack_config_data(word)
    assert features == Feature.SEQUENCED | Feature.RETRANSMISSION
    assert msg_type == MsgType.NAK
    assert ack == AckScheme.NAK_ONLY


def test_zero_word_is_mode0_data():
    features, msg_type, ack = unpack_config_data(0)
    assert features == Feature.NONE
    assert msg_type == MsgType.DATA
    assert ack == AckScheme.NONE


def test_out_of_range_word_rejected():
    with pytest.raises(ValueError):
        unpack_config_data(1 << 24)
    with pytest.raises(ValueError):
        unpack_config_data(-1)


def test_feature_bits_disjoint():
    seen = 0
    for member in Feature:
        if member == Feature.NONE:
            continue
        assert seen & member == 0, f"{member} overlaps"
        seen |= member


feature_bits = st.integers(0, sum(Feature))


@given(
    bits=feature_bits,
    msg=st.sampled_from(list(MsgType)),
    ack=st.sampled_from(list(AckScheme)),
)
def test_roundtrip_property(bits, msg, ack):
    word = pack_config_data(Feature(bits), msg, ack)
    features, msg2, ack2 = unpack_config_data(word)
    assert int(features) == bits
    assert msg2 == msg
    assert ack2 == ack


def test_msg_type_names_are_indexed_by_value():
    assert [MSG_TYPE_NAMES[msg_type] for msg_type in MsgType] == [t.name for t in MsgType]
