"""Codec conformance properties over arbitrary valid headers, and the
two codecs that parse packet bytes under mutated input."""

from repro.core import (
    BackpressurePayload,
    DeadlineMissPayload,
    HeaderError,
    HeartbeatPayload,
    MmtHeader,
    ModeAnnouncePayload,
    NakPayload,
    SeqRange,
    WindowUpdatePayload,
)
from repro.core.control import decode_control
from repro.netsim import Packet

from .strategies import DEFAULT_CASES, Gen, arbitrary_header, cases


def test_strategy_is_deterministic_per_seed():
    """The suite's reproducibility contract: same seed, same header."""
    first = arbitrary_header(Gen(1234))
    second = arbitrary_header(Gen(1234))
    assert first == second
    assert first.encode() == second.encode()


def test_roundtrip_arbitrary_headers():
    """encode → decode is the identity for every valid header, and the
    declared size always matches the wire size."""
    for index, gen in cases():
        header = arbitrary_header(gen)
        wire = header.encode()
        assert len(wire) == header.size_bytes, f"case {index} (seed {gen.seed})"
        decoded = MmtHeader.decode(wire)
        assert decoded == header, f"case {index} (seed {gen.seed})"
        assert decoded.flow_key == header.flow_key


def test_decode_prefix_consumes_exactly_the_header():
    """With arbitrary payload bytes appended, decode_prefix stops at the
    header boundary and reproduces the header."""
    for index, gen in cases():
        header = arbitrary_header(gen)
        wire = header.encode()
        payload = bytes(gen.integer(0, 255) for _ in range(gen.integer(0, 64)))
        decoded, consumed = MmtHeader.decode_prefix(wire + payload)
        assert consumed == len(wire), f"case {index} (seed {gen.seed})"
        assert decoded == header, f"case {index} (seed {gen.seed})"


def test_reencode_after_decode_is_stable():
    """decode(encode(h)).encode() is byte-identical — no field is
    normalized, lost, or reordered by a round trip."""
    for index, gen in cases():
        header = arbitrary_header(gen)
        wire = header.encode()
        again = MmtHeader.decode(wire).encode()
        assert again == wire, f"case {index} (seed {gen.seed})"


def test_case_count_is_the_advertised_volume():
    assert sum(1 for _ in cases()) == DEFAULT_CASES >= 200


# -- mutated input -------------------------------------------------------------


def mutations(wire: bytes, gen: Gen):
    """Every truncation of ``wire``, every single-bit flip of it, and it
    with one random byte appended."""
    for cut in range(len(wire)):
        yield wire[:cut]
    for bit in range(len(wire) * 8):
        flipped = bytearray(wire)
        flipped[bit // 8] ^= 1 << (bit % 8)
        yield bytes(flipped)
    yield wire + bytes([gen.integer(0, 255)])


def test_mutated_headers_decode_canonically_or_raise_header_error():
    """``decode_prefix`` of hostile bytes either raises ``HeaderError`` or
    returns the one header whose encoding is exactly the bytes it read:
    no other exception, no header that re-encodes differently."""
    for index, gen in cases():
        for mutant in mutations(arbitrary_header(gen).encode(), gen):
            try:
                header, consumed = MmtHeader.decode_prefix(mutant)
            except HeaderError:
                continue
            assert header.encode() == mutant[:consumed], f"case {index} (seed {gen.seed})"


CONTROL_MESSAGES = (
    NakPayload(ranges=[SeqRange(1, 3), SeqRange(10, 0xFFFFFFFF)]),
    DeadlineMissPayload(seq=9, deadline_ns=100, observed_ns=150, experiment_id=7),
    BackpressurePayload(advised_rate_mbps=5000, origin="10.1.2.3", severity=2),
    ModeAnnouncePayload(config_id=2, element="10.0.0.9", at_ns=1 << 40),
    WindowUpdatePayload(credits=64, delivered_total=123456789),
    HeartbeatPayload(highest_seq=123456, packets_sent=99),
)


def test_mutated_control_payloads_decode_or_return_none():
    """``decode_control`` never raises on a hostile payload: it returns
    a message of the asked type, which re-encodes to the same bytes, or
    None."""
    gen = Gen(7)
    for message in CONTROL_MESSAGES:
        codec = type(message)
        assert decode_control(codec, Packet()) is None
        for mutant in mutations(message.encode(), gen):
            decoded = decode_control(codec, Packet(payload=mutant))
            if decoded is not None:
                assert type(decoded) is codec and decoded.encode() == mutant, (codec, mutant)
