"""Control payload codecs: NAK and the five fixed-format payloads."""

import pytest
from hypothesis import given, strategies as st

from repro.core import (
    BackpressurePayload,
    ControlCodecError,
    DeadlineMissPayload,
    HeartbeatPayload,
    ModeAnnouncePayload,
    NakPayload,
    SeqRange,
    WindowUpdatePayload,
)


class TestSeqRange:
    def test_length_and_iteration(self):
        r = SeqRange(5, 8)
        assert len(r) == 4
        assert list(r) == [5, 6, 7, 8]

    def test_invalid_order(self):
        with pytest.raises(ControlCodecError):
            SeqRange(9, 5)


class TestNak:
    def test_roundtrip(self):
        nak = NakPayload(ranges=[SeqRange(1, 3), SeqRange(10, 10)])
        decoded = NakPayload.decode(nak.encode())
        assert decoded.ranges == nak.ranges

    def test_empty(self):
        assert NakPayload.decode(NakPayload().encode()).ranges == []

    def test_coalescing(self):
        nak = NakPayload.from_sequence_numbers([5, 1, 2, 3, 9, 10, 5])
        assert nak.ranges == [SeqRange(1, 3), SeqRange(5, 5), SeqRange(9, 10)]

    def test_coalescing_empty(self):
        assert NakPayload.from_sequence_numbers([]).ranges == []

    def test_length_mismatch_rejected(self):
        data = NakPayload(ranges=[SeqRange(0, 1)]).encode()
        with pytest.raises(ControlCodecError):
            NakPayload.decode(data[:-1])
        with pytest.raises(ControlCodecError):
            NakPayload.decode(data + b"\x00")

    @given(st.lists(st.integers(0, 10_000), max_size=200))
    def test_coalesce_covers_exactly_input(self, seqs):
        nak = NakPayload.from_sequence_numbers(seqs)
        covered = sorted(s for r in nak.ranges for s in r)
        assert covered == sorted(set(seqs))
        # Ranges are disjoint and ordered.
        for earlier, later in zip(nak.ranges, nak.ranges[1:]):
            assert earlier.end + 1 < later.start

    @given(st.lists(st.integers(0, 2**32 - 1), max_size=64))
    def test_nak_roundtrip_property(self, seqs):
        nak = NakPayload.from_sequence_numbers(seqs)
        assert NakPayload.decode(nak.encode()).ranges == nak.ranges


#: (id, one payload of each fixed format, its wire size in bytes).
FIXED_PAYLOADS = [
    ("deadline-miss", DeadlineMissPayload(seq=9, deadline_ns=100, observed_ns=150,
                                          experiment_id=7), 24),
    ("backpressure", BackpressurePayload(advised_rate_mbps=5000, origin="10.1.2.3",
                                         severity=2), 9),
    ("mode-announce", ModeAnnouncePayload(config_id=2, element="10.0.0.9", at_ns=1 << 40), 13),
    ("window", WindowUpdatePayload(credits=64, delivered_total=123456789), 12),
    ("heartbeat", HeartbeatPayload(highest_seq=123456, packets_sent=99), 12),
]


@pytest.mark.parametrize(
    "message, size", [case[1:] for case in FIXED_PAYLOADS], ids=[case[0] for case in FIXED_PAYLOADS]
)
class TestFixedPayloads:
    def test_roundtrip(self, message, size):
        data = message.encode()
        assert len(data) == size
        assert type(message).decode(data) == message

    def test_wrong_length(self, message, size):
        data = message.encode()
        for bad in (b"", data[:1], data[:-1], data + b"\x00"):
            with pytest.raises(ControlCodecError, match=f"payload length {len(bad)} != {size}"):
                type(message).decode(bad)
