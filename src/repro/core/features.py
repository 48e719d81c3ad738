"""Transport features, message types, and the 24-bit configuration word.

The paper's core header (§5.2) carries an 8-bit *configuration id* and
24 bits of *configuration data*; together they denote the transport's
**mode**. The configuration data activates protocol features "such as
flow or congestion control, or describe the acknowledgement scheme".

We lay the 24-bit word out as:

====  ==========================================================
bits  meaning
====  ==========================================================
0-15  feature activation bits (:class:`Feature`)
16-19 message type (:class:`MsgType`) — data vs. control traffic
20-23 acknowledgement scheme (:class:`AckScheme`)
====  ==========================================================
"""

from __future__ import annotations

from enum import IntEnum, IntFlag
from types import SimpleNamespace

CONFIG_DATA_BITS = 24
CONFIG_DATA_MAX = (1 << CONFIG_DATA_BITS) - 1

_FEATURE_BITS = 16
_MSG_TYPE_SHIFT = 16
_MSG_TYPE_BITS = 4
_ACK_SCHEME_SHIFT = 20
_ACK_SCHEME_BITS = 4


class Feature(IntFlag):
    """Feature activation bits carried in the configuration data word.

    Each bit switches on one transport feature for the *current network
    segment*; extension fields for active features follow the core
    header in a fixed order (see :mod:`repro.core.header`).
    """

    NONE = 0
    #: Packets carry a sequence number (prerequisite for loss detection).
    SEQUENCED = 1 << 0
    #: Loss is recoverable by NAK-ing an on-path retransmission buffer.
    RETRANSMISSION = 1 << 1
    #: Packets carry a delivery deadline and a miss-notification address.
    TIMELINESS = 1 << 2
    #: Network elements track age and set the ``aged`` flag past budget.
    AGE_TRACKING = 1 << 3
    #: Sender-side pacing at an explicit rate.
    PACING = 1 << 4
    #: Receiver-window flow control.
    FLOW_CONTROL = 1 << 5
    #: Congestion control (off by default: capacity-planned circuits, §5.3).
    CONGESTION_CONTROL = 1 << 6
    #: On-path elements may relay backpressure signals to the source.
    BACKPRESSURE = 1 << 7
    #: The stream may be duplicated in-network to multiple consumers.
    DUPLICATION = 1 << 8
    #: Payload is encrypted by third-party software/hardware (Req 5).
    ENCRYPTED = 1 << 9
    #: Packets carry a 16-bit flow identifier so many concurrent science
    #: streams (DUNE, Rubin, CMS, ...) can share one programmable segment
    #: with isolated per-flow dataplane state.
    FLOW_ID = 1 << 10

    @classmethod
    def all_defined(cls) -> "Feature":
        combined = cls.NONE
        for member in cls:
            combined |= member
        return combined


#: ``BITS.SEQUENCED`` and so on: every feature bit as a plain ``int``.
#: Per-packet tests must be int-vs-int — with a :class:`Feature` on
#: either side, ``&`` re-wraps its result through the enum machinery.
BITS = SimpleNamespace(**{feature.name: int(feature) for feature in Feature})


class MsgType(IntEnum):
    """Message types distinguishing DAQ data from control traffic."""

    DATA = 0
    #: Negative acknowledgement listing missing sequence numbers.
    NAK = 1
    #: Data retransmitted from a buffer in response to a NAK.
    RETX_DATA = 2
    #: "Deadline exceeded" notification sent to the timeliness address.
    DEADLINE_MISS = 3
    #: Backpressure signal relayed toward the source (§5.1).
    BACKPRESSURE = 4
    #: Periodic keepalive carrying the highest sequence number sent.
    HEARTBEAT = 5
    #: Control-plane announcement of a mode change (future work, §6).
    MODE_ANNOUNCE = 6
    #: Receiver-granted credit update (FLOW_CONTROL feature).
    WINDOW = 7


class AckScheme(IntEnum):
    """Acknowledgement scheme used on the current segment (§5.2)."""

    NONE = 0
    #: Receiver NAKs gaps; no positive ACKs (the pilot's scheme).
    NAK_ONLY = 1
    #: Cumulative positive ACKs (TCP-like; for interop studies).
    CUMULATIVE = 2
    #: Per-hop acknowledgement (X.25-style, §5.3).
    HOP_BY_HOP = 3


def pack_config_data(
    features: Feature,
    msg_type: MsgType = MsgType.DATA,
    ack_scheme: AckScheme = AckScheme.NONE,
) -> int:
    """Assemble the 24-bit configuration data word."""
    feature_bits = int(features)
    if feature_bits >> _FEATURE_BITS:
        raise ValueError(f"feature bits overflow 16 bits: {feature_bits:#x}")
    if not 0 <= int(msg_type) < (1 << _MSG_TYPE_BITS):
        raise ValueError(f"msg_type out of range: {msg_type}")
    if not 0 <= int(ack_scheme) < (1 << _ACK_SCHEME_BITS):
        raise ValueError(f"ack_scheme out of range: {ack_scheme}")
    return (
        feature_bits
        | (int(msg_type) << _MSG_TYPE_SHIFT)
        | (int(ack_scheme) << _ACK_SCHEME_SHIFT)
    )


def unpack_config_data(word: int) -> tuple[Feature, MsgType, AckScheme]:
    """Split a 24-bit configuration data word into its parts."""
    if not 0 <= word <= CONFIG_DATA_MAX:
        raise ValueError(f"config data out of range: {word:#x}")
    features = Feature(word & ((1 << _FEATURE_BITS) - 1))
    msg_type = MsgType((word >> _MSG_TYPE_SHIFT) & ((1 << _MSG_TYPE_BITS) - 1))
    ack_scheme = AckScheme((word >> _ACK_SCHEME_SHIFT) & ((1 << _ACK_SCHEME_BITS) - 1))
    return features, msg_type, ack_scheme
