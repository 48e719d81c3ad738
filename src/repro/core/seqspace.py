"""Serial-number arithmetic for the 32-bit sequence space.

The wire carries 32-bit sequence numbers (§5.2's fixed-size extension
field); long-running DAQ streams wrap them — at 100 Gb/s of 8 kB
messages, every ~40 minutes. Endpoints therefore track *virtual*
(unbounded) sequence numbers internally and map wire values back using
RFC 1982-style serial arithmetic: a received 32-bit value is
interpreted as the virtual sequence number closest to the current
reference point.
"""

from __future__ import annotations

SEQ_BITS = 32
SEQ_MOD = 1 << SEQ_BITS


def wrap(virtual_seq: int) -> int:
    """Virtual (unbounded) sequence number → 32-bit wire value."""
    if virtual_seq < 0:
        raise ValueError(f"sequence numbers are non-negative, got {virtual_seq}")
    return virtual_seq & (SEQ_MOD - 1)


def unwrap(wire_seq: int, reference: int) -> int:
    """32-bit wire value → the virtual sequence nearest ``reference``.

    ``reference`` is the receiver's current position (e.g. the highest
    virtual sequence seen). The result is the unique virtual number
    congruent to ``wire_seq`` within ±2^31 of the reference — standard
    serial-number arithmetic, so reordering and retransmission across
    a wrap boundary resolve correctly. Values that would unwrap below
    zero (early stream, reference near 0) clamp into the first epoch.
    """
    if not 0 <= wire_seq < SEQ_MOD:
        raise ValueError(f"wire sequence out of range: {wire_seq}")
    if reference < 0:
        raise ValueError(f"reference must be non-negative, got {reference}")
    epoch_base = reference - (reference % SEQ_MOD)
    candidate = epoch_base + wire_seq
    # Choose among the adjacent epochs the value closest to reference.
    best = candidate
    best_distance = abs(candidate - reference)
    for shifted in (candidate - SEQ_MOD, candidate + SEQ_MOD):
        if shifted < 0:
            continue
        distance = abs(shifted - reference)
        if distance < best_distance:
            best = shifted
            best_distance = distance
    return best

