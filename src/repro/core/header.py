"""The MMT wire format: core header plus fixed-order extension fields.

From the paper (§5.2):

    "The core header contains 3 fields: (1) an 8-bit configuration
    identifier [...] (2) 24 bits of configuration data [...] (3) a
    32-bit experiment ID. [...] After the core header, there is a
    variable number of fixed-size, optional fields (in a fixed order)
    that depend on the activated features (configuration bits)."

The core header is exactly 8 bytes. Extension fields appear in the
fixed order below, each present iff its feature bit is set:

====================  ======  =======================================
feature               bytes   fields
====================  ======  =======================================
``SEQUENCED``         4       ``seq`` (u32)
``RETRANSMISSION``    4       ``buffer_addr`` (IPv4)
``TIMELINESS``        12      ``deadline_ns`` (u64), ``notify_addr``
``AGE_TRACKING``      17      ``age_ns`` (u64), ``age_budget_ns``
                              (u64), ``aged`` flag (u8)
``PACING``            4       ``pace_rate_mbps`` (u32)
``BACKPRESSURE``      4       ``source_addr`` (IPv4)
``DUPLICATION``       3       ``dup_group`` (u16), ``dup_copies`` (u8)
``FLOW_ID``           2       ``flow_id`` (u16)
====================  ======  =======================================

``FLOW_ID`` is appended *after* every pre-existing extension so that
all headers without the bit keep their exact historical wire layout —
single-flow traffic stays byte-identical with or without this codec
revision.

The codec is byte-exact (big-endian network order) so that the paper's
"conservative, header-based processing" claim is testable: everything
an on-path element rewrites is in these bytes, never in the payload.

Performance: the codec is a per-packet hot path, so the loop-and-pack
implementation was replaced by a table of precompiled
:class:`struct.Struct` instances — one per extension-feature
combination, built lazily and cached forever. ``size_bytes`` is a dict
lookup keyed on the raw feature bits, ``encode`` is a single
``Struct.pack`` over the whole header, and ``decode`` a single
``Struct.unpack``. IPv4 string↔int conversions are memoized (topologies
use a handful of addresses). ``encode`` validates once per header
*configuration*: :meth:`validate` records its verdict on the header and
only a ``features`` write — the one tracked field, see
:func:`~repro.netsim.headers.size_fields` — withdraws it, so trusted
in-pipeline rewrites of value fields (seq, age, addresses) are plain
slot writes and do not pay re-validation. The equivalence of the fast
path with the reference layout and reference checks is pinned by
``tests/core/test_header_fastpath.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from struct import Struct

from ..netsim.headers import Header, size_fields
from .features import (
    AckScheme,
    CONFIG_DATA_MAX,
    Feature,
    MsgType,
    pack_config_data,
    unpack_config_data,
)

CORE_HEADER_BYTES = 8

#: Bits of the experiment id reserved for the instrument slice (Req 8).
SLICE_BITS = 8
SLICE_MASK = (1 << SLICE_BITS) - 1


class HeaderError(ValueError):
    """Raised for malformed MMT headers or codec misuse."""


#: Memoized IPv4 codecs — topologies use a handful of distinct
#: addresses, so both directions are effectively O(1) after warm-up.
_IPV4_PACK_CACHE: dict[str, int] = {}
_IPV4_UNPACK_CACHE: dict[int, str] = {}


def pack_ipv4(address: str) -> int:
    """Dotted-quad string → 32-bit integer."""
    cached = _IPV4_PACK_CACHE.get(address)
    if cached is not None:
        return cached
    parts = address.split(".")
    if len(parts) != 4:
        raise HeaderError(f"bad IPv4 address {address!r}")
    value = 0
    for part in parts:
        try:
            octet = int(part)
        except ValueError:
            raise HeaderError(f"bad IPv4 address {address!r}") from None
        if not 0 <= octet <= 255:
            raise HeaderError(f"bad IPv4 address {address!r}")
        value = (value << 8) | octet
    if len(_IPV4_PACK_CACHE) < 65536:
        _IPV4_PACK_CACHE[address] = value
    return value


def unpack_ipv4(value: int) -> str:
    """32-bit integer → dotted-quad string."""
    cached = _IPV4_UNPACK_CACHE.get(value)
    if cached is not None:
        return cached
    if not 0 <= value <= 0xFFFFFFFF:
        raise HeaderError(f"IPv4 value out of range: {value:#x}")
    address = (
        f"{(value >> 24) & 0xFF}.{(value >> 16) & 0xFF}."
        f"{(value >> 8) & 0xFF}.{value & 0xFF}"
    )
    if len(_IPV4_UNPACK_CACHE) < 65536:
        _IPV4_UNPACK_CACHE[value] = address
    return address


def make_experiment_id(experiment: int, slice_id: int = 0) -> int:
    """Combine an experiment number and slice id into the 32-bit field."""
    if not 0 <= experiment < (1 << (32 - SLICE_BITS)):
        raise HeaderError(f"experiment number out of range: {experiment}")
    if not 0 <= slice_id <= SLICE_MASK:
        raise HeaderError(f"slice id out of range: {slice_id}")
    return (experiment << SLICE_BITS) | slice_id


def split_experiment_id(experiment_id: int) -> tuple[int, int]:
    """Split the 32-bit field into (experiment number, slice id)."""
    return experiment_id >> SLICE_BITS, experiment_id & SLICE_MASK


# -- precompiled codec table ---------------------------------------------------

#: (feature bit value, struct segment, bytes) in wire order. The raw
#: ints mirror :class:`Feature` — pinned by tests against the enum.
_EXT_SEGMENTS: tuple[tuple[int, str, int], ...] = (
    (int(Feature.SEQUENCED), "I", 4),
    (int(Feature.RETRANSMISSION), "I", 4),
    (int(Feature.TIMELINESS), "QI", 12),
    (int(Feature.AGE_TRACKING), "QQB", 17),
    (int(Feature.PACING), "I", 4),
    (int(Feature.BACKPRESSURE), "I", 4),
    (int(Feature.DUPLICATION), "HB", 3),
    (int(Feature.FLOW_ID), "H", 2),
)

#: Bitmask of every feature that contributes extension bytes.
_EXT_MASK = 0
for _bit, _fmt, _size in _EXT_SEGMENTS:
    _EXT_MASK |= _bit

#: Feature → its optional extension fields, in wire order (``aged`` is
#: a flag inside AGE_TRACKING's bytes, not an optional field).
FEATURE_FIELDS: dict[Feature, tuple[str, ...]] = {
    Feature.SEQUENCED: ("seq",),
    Feature.RETRANSMISSION: ("buffer_addr",),
    Feature.TIMELINESS: ("deadline_ns", "notify_addr"),
    Feature.AGE_TRACKING: ("age_ns", "age_budget_ns"),
    Feature.PACING: ("pace_rate_mbps",),
    Feature.BACKPRESSURE: ("source_addr",),
    Feature.DUPLICATION: ("dup_group", "dup_copies"),
    Feature.FLOW_ID: ("flow_id",),
}

#: One (feature bit, feature name, field) row per extension field; row
#: *i* is bit *i* of the presence word :meth:`MmtHeader.validate` builds.
_EXT_FIELDS = tuple(
    (int(feature), feature.name, name)
    for feature, names in FEATURE_FIELDS.items()
    for name in names
)

_CORE_STRUCT = Struct(">BBHI")


class _Codec:
    """Precompiled wire codec for one extension-feature combination."""

    __slots__ = ("struct", "bits", "size", "fields")

    def __init__(self, ext_bits: int) -> None:
        fmt = ">BBHI"
        size = CORE_HEADER_BYTES
        for bit, segment, seg_size in _EXT_SEGMENTS:
            if ext_bits & bit:
                fmt += segment
                size += seg_size
        self.struct = Struct(fmt)
        self.bits = ext_bits
        self.size = size
        #: Presence word of the extension fields this combination sets.
        self.fields = sum(
            1 << row for row, (bit, _, _) in enumerate(_EXT_FIELDS) if ext_bits & bit
        )
        assert self.struct.size == size


#: ext-bits → codec, filled eagerly for all 256 extension combinations
#: (8 size-bearing features), so lookups never miss.
_CODECS: dict[int, _Codec] = {}
for _combo in range(1 << len(_EXT_SEGMENTS)):
    _bits = 0
    for _index, (_bit, _fmt, _size) in enumerate(_EXT_SEGMENTS):
        if _combo & (1 << _index):
            _bits |= _bit
    _CODECS[_bits] = _Codec(_bits)

#: raw feature word → total header size. Keyed on the *unmasked* value
#: so ``size_bytes`` needs no bitwise-and on the (slow) IntFlag; filled
#: lazily because non-extension bits (flow control, encryption, ...)
#: can appear in any combination.
_SIZE_BY_FEATURES: dict[int, int] = {
    bits: codec.size for bits, codec in _CODECS.items()
}


@size_fields("features")
@dataclass(slots=True)
class MmtHeader(Header):
    """A fully-parsed MMT header (core + active extension fields).

    Extension attributes must be set iff the corresponding feature bit
    is active; :meth:`validate` (called by :meth:`encode`) enforces it.
    """

    config_id: int = 0
    features: Feature = Feature.NONE
    msg_type: MsgType = MsgType.DATA
    ack_scheme: AckScheme = AckScheme.NONE
    experiment_id: int = 0

    # SEQUENCED
    seq: int | None = None
    # RETRANSMISSION
    buffer_addr: str | None = None
    # TIMELINESS
    deadline_ns: int | None = None
    notify_addr: str | None = None
    # AGE_TRACKING
    age_ns: int | None = None
    age_budget_ns: int | None = None
    aged: bool = False
    # PACING
    pace_rate_mbps: int | None = None
    # BACKPRESSURE
    source_addr: str | None = None
    # DUPLICATION
    dup_group: int | None = None
    dup_copies: int | None = None
    # FLOW_ID
    flow_id: int | None = None

    _EXTENSION_LAYOUT = (
        (Feature.SEQUENCED, 4),
        (Feature.RETRANSMISSION, 4),
        (Feature.TIMELINESS, 12),
        (Feature.AGE_TRACKING, 17),
        (Feature.PACING, 4),
        (Feature.BACKPRESSURE, 4),
        (Feature.DUPLICATION, 3),
        (Feature.FLOW_ID, 2),
    )

    # -- Header interface ---------------------------------------------------

    @property
    def size_bytes(self) -> int:
        features = self.features
        size = _SIZE_BY_FEATURES.get(features)
        if size is None:
            # Unseen combination of non-extension bits: resolve via the
            # codec table once, then remember the unmasked word.
            size = _CODECS[int(features) & _EXT_MASK].size
            if len(_SIZE_BY_FEATURES) < 65536:
                _SIZE_BY_FEATURES[int(features)] = size
        return size

    def copy(self) -> "MmtHeader":
        # Explicit constructor call: measurably cheaper than
        # dataclasses.replace() on this 16-field header (packet.copy()
        # runs once per in-network duplicate and buffer mirror).
        return MmtHeader(
            config_id=self.config_id,
            features=self.features,
            msg_type=self.msg_type,
            ack_scheme=self.ack_scheme,
            experiment_id=self.experiment_id,
            seq=self.seq,
            buffer_addr=self.buffer_addr,
            deadline_ns=self.deadline_ns,
            notify_addr=self.notify_addr,
            age_ns=self.age_ns,
            age_budget_ns=self.age_budget_ns,
            aged=self.aged,
            pace_rate_mbps=self.pace_rate_mbps,
            source_addr=self.source_addr,
            dup_group=self.dup_group,
            dup_copies=self.dup_copies,
            flow_id=self.flow_id,
        )

    # -- convenience --------------------------------------------------------

    @property
    def experiment(self) -> int:
        return self.experiment_id >> SLICE_BITS

    @property
    def slice_id(self) -> int:
        return self.experiment_id & SLICE_MASK

    @property
    def flow_key(self) -> tuple[int, int]:
        """``(experiment_id, flow_id)`` with headers lacking the
        FLOW_ID extension mapped to flow 0 — the canonical key for all
        per-flow dataplane and endpoint state."""
        return (self.experiment_id, self.flow_id or 0)

    def has(self, feature: Feature) -> bool:
        # Both operands must be plain ints: with an IntFlag on either
        # side the bitwise-and dispatches to Feature.__and__/__rand__,
        # which re-wraps the result through the enum machinery.
        return bool(int(self.features) & int(feature))

    # -- validation -----------------------------------------------------------

    def validate(self) -> None:
        """Check field presence matches active feature bits."""
        if not 0 <= self.config_id <= 0xFF:
            raise HeaderError(f"config_id out of range: {self.config_id}")
        if not 0 <= self.experiment_id <= 0xFFFFFFFF:
            raise HeaderError(f"experiment_id out of range: {self.experiment_id}")
        bits = int(self.features)
        flow_id = self.flow_id
        # One bit per _EXT_FIELDS row, in row order.
        present = (
            (self.seq is not None)
            | (self.buffer_addr is not None) << 1
            | (self.deadline_ns is not None) << 2
            | (self.notify_addr is not None) << 3
            | (self.age_ns is not None) << 4
            | (self.age_budget_ns is not None) << 5
            | (self.pace_rate_mbps is not None) << 6
            | (self.source_addr is not None) << 7
            | (self.dup_group is not None) << 8
            | (self.dup_copies is not None) << 9
            | (flow_id is not None) << 10
        )
        expected = _CODECS[bits & _EXT_MASK].fields
        if present != expected:
            wrong = present ^ expected  # lowest set bit = first bad row
            bit, feature, name = _EXT_FIELDS[(wrong & -wrong).bit_length() - 1]
            if bits & bit:
                raise HeaderError(f"{feature} active but {name} is unset")
            raise HeaderError(f"{name} set but {feature} inactive")
        if flow_id is not None and not 0 <= flow_id <= 0xFFFF:
            raise HeaderError(f"flow_id out of range: {flow_id}")
        if self.aged and not bits & 0x08:  # AGE_TRACKING
            raise HeaderError("aged flag set without AGE_TRACKING")
        # Validate-once: encode() trusts this verdict until the next
        # features write withdraws it (Header._touch).
        self._validated = True

    # -- codec ------------------------------------------------------------------

    def encode(self, *, validate: bool | None = None) -> bytes:
        """Serialize to network-order bytes.

        ``validate=None`` (default) validates once per header
        configuration: the first encode after construction or after a
        ``features`` rewrite validates, later encodes reuse the cached
        verdict. ``validate=True`` forces a fresh validation;
        ``validate=False`` skips it entirely (trusted in-pipeline use).
        """
        if validate or (validate is None and not self._validated):
            self.validate()
        config_data = pack_config_data(self.features, self.msg_type, self.ack_scheme)
        if config_data > CONFIG_DATA_MAX:
            raise HeaderError(f"config data overflow: {config_data:#x}")
        bits = int(self.features)
        codec = _CODECS[bits & _EXT_MASK]
        args = [
            self.config_id,
            (config_data >> 16) & 0xFF,
            config_data & 0xFFFF,
            self.experiment_id,
        ]
        append = args.append
        if bits & 0x01:  # SEQUENCED
            append(self.seq & 0xFFFFFFFF)
        if bits & 0x02:  # RETRANSMISSION
            append(pack_ipv4(self.buffer_addr))
        if bits & 0x04:  # TIMELINESS
            append(self.deadline_ns)
            append(pack_ipv4(self.notify_addr))
        if bits & 0x08:  # AGE_TRACKING
            append(self.age_ns)
            append(self.age_budget_ns)
            append(1 if self.aged else 0)
        if bits & 0x10:  # PACING
            append(self.pace_rate_mbps)
        if bits & 0x80:  # BACKPRESSURE
            append(pack_ipv4(self.source_addr))
        if bits & 0x100:  # DUPLICATION
            append(self.dup_group)
            append(self.dup_copies)
        if bits & 0x400:  # FLOW_ID
            append(self.flow_id)
        try:
            return codec.struct.pack(*args)
        except Exception as exc:  # field out of struct range
            raise HeaderError(f"cannot encode header: {exc}") from exc

    @classmethod
    def decode(cls, data: bytes) -> "MmtHeader":
        """Parse network-order bytes into a header (strict: trailing
        bytes beyond the declared extensions are an error)."""
        header, consumed = cls.decode_prefix(data)
        if consumed != len(data):
            raise HeaderError(
                f"{len(data) - consumed} trailing bytes after MMT header"
            )
        return header

    @classmethod
    def decode_prefix(cls, data: bytes) -> tuple["MmtHeader", int]:
        """Parse a header from the front of ``data``; returns (header,
        bytes consumed). Use this when a payload follows the header."""
        if len(data) < CORE_HEADER_BYTES:
            raise HeaderError(f"truncated core header: {len(data)} bytes")
        config_id, data_hi, data_lo, experiment_id = _CORE_STRUCT.unpack_from(data)
        config_data = (data_hi << 16) | data_lo
        features, msg_type, ack_scheme = unpack_config_data(config_data)
        header = cls(
            config_id=config_id,
            features=features,
            msg_type=msg_type,
            ack_scheme=ack_scheme,
            experiment_id=experiment_id,
        )
        bits = int(features)
        codec = _CODECS[bits & _EXT_MASK]
        if len(data) < codec.size:
            raise HeaderError("truncated extension field")
        values = codec.struct.unpack_from(data)
        index = 4  # core fields already consumed
        if bits & 0x01:  # SEQUENCED
            header.seq = values[index]
            index += 1
        if bits & 0x02:  # RETRANSMISSION
            header.buffer_addr = unpack_ipv4(values[index])
            index += 1
        if bits & 0x04:  # TIMELINESS
            header.deadline_ns = values[index]
            header.notify_addr = unpack_ipv4(values[index + 1])
            index += 2
        if bits & 0x08:  # AGE_TRACKING
            header.age_ns = values[index]
            header.age_budget_ns = values[index + 1]
            header.aged = bool(values[index + 2] & 1)
            index += 3
        if bits & 0x10:  # PACING
            header.pace_rate_mbps = values[index]
            index += 1
        if bits & 0x80:  # BACKPRESSURE
            header.source_addr = unpack_ipv4(values[index])
            index += 1
        if bits & 0x100:  # DUPLICATION
            header.dup_group = values[index]
            header.dup_copies = values[index + 1]
            index += 2
        if bits & 0x400:  # FLOW_ID
            header.flow_id = values[index]
        header.validate()
        return header, codec.size
