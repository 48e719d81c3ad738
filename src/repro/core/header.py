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

Performance: the codec is a per-packet hot path. :data:`LAYOUT` is
the one statement of the table above, a row per field, and every
per-combination fact is precomputed from it when the module loads: for
each of the 256 extension combinations, a :class:`_Codec` holds one
:class:`struct.Struct` over the whole header, its size, an
``operator.attrgetter`` over its fields and the positions of its IPv4
and flag fields. ``size_bytes`` is a dict lookup keyed on the raw
feature bits, ``encode`` is one getter call and a single
``Struct.pack``, ``decode`` a single ``Struct.unpack_from`` and one
constructor call, and ``copy`` one getter call. IPv4 string↔int
conversions are memoized (topologies use a handful of addresses).
``encode`` validates once per header *configuration*: :meth:`validate`
records the feature word it checked, and ``encode`` validates again
only when ``features`` differs from it, so trusted in-pipeline rewrites
of value fields (seq, age, addresses) are plain slot writes and do not
pay re-validation. The equivalence of the fast path with the reference
layout and reference checks is pinned by
``tests/core/test_header_fastpath.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter
from struct import Struct
from struct import error as StructError
from typing import NamedTuple

from ..netsim.headers import Header
from .features import (
    BITS,
    CONFIG_DATA_MAX,
    AckScheme,
    Feature,
    MsgType,
    pack_config_data,
    unpack_config_data,
)

CORE_HEADER_BYTES = 8

#: Bits of the experiment id reserved for the instrument slice (Req 8).
SLICE_BITS = 8
SLICE_MASK = (1 << SLICE_BITS) - 1

#: The only msg types and ack schemes ``decode`` accepts; ``validate``
#: refuses any other, so ``encode`` never writes what ``decode`` rejects.
_MSG_TYPES = frozenset(MsgType)
_ACK_SCHEMES = frozenset(AckScheme)


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


# -- the extension layout ------------------------------------------------------


class ExtensionField(NamedTuple):
    """One optional extension field of the wire format."""

    #: The feature bit that makes the field present.
    feature: Feature
    #: The :class:`MmtHeader` attribute holding its value.
    name: str
    #: Its :mod:`struct` code (network order).
    code: str
    #: ``"int"``; ``"ipv4"``, a dotted quad on the header and a u32 on
    #: the wire; or ``"flag"``, a bool on the header and a 0/1 byte.
    kind: str
    #: A mode rewrite that activates the feature takes the value from
    #: its :class:`~repro.core.modes.TransitionContext`.
    from_context: bool


#: Every optional extension field, in wire order: the one statement of
#: the layout the codec, validation, ``copy`` and mode rewrites use.
LAYOUT = (
    ExtensionField(Feature.SEQUENCED, "seq", "I", "int", True),
    ExtensionField(Feature.RETRANSMISSION, "buffer_addr", "I", "ipv4", True),
    ExtensionField(Feature.TIMELINESS, "deadline_ns", "Q", "int", True),
    ExtensionField(Feature.TIMELINESS, "notify_addr", "I", "ipv4", True),
    ExtensionField(Feature.AGE_TRACKING, "age_ns", "Q", "int", False),
    ExtensionField(Feature.AGE_TRACKING, "age_budget_ns", "Q", "int", True),
    ExtensionField(Feature.AGE_TRACKING, "aged", "B", "flag", False),
    ExtensionField(Feature.PACING, "pace_rate_mbps", "I", "int", True),
    ExtensionField(Feature.BACKPRESSURE, "source_addr", "I", "ipv4", True),
    ExtensionField(Feature.DUPLICATION, "dup_group", "H", "int", True),
    ExtensionField(Feature.DUPLICATION, "dup_copies", "B", "int", True),
    ExtensionField(Feature.FLOW_ID, "flow_id", "H", "int", False),
)


def fields_by_feature(rows) -> dict[Feature, tuple[str, ...]]:
    """Feature → the names of ``rows`` it carries, both in wire order."""
    grouped: dict[Feature, tuple[str, ...]] = {}
    for row in rows:
        grouped[row.feature] = grouped.get(row.feature, ()) + (row.name,)
    return grouped


#: Feature → its optional extension fields, in wire order (``aged`` is
#: a flag inside AGE_TRACKING's bytes, not an optional field).
FEATURE_FIELDS = fields_by_feature(row for row in LAYOUT if row.kind != "flag")

#: The features that contribute extension bytes, in wire order, and
#: their bitmask.
_EXT_FEATURES = tuple(FEATURE_FIELDS)
_EXT_MASK = sum(_EXT_FEATURES)

#: Core header: (config id << 24 | config data) as one u32, experiment id.
_CORE_STRUCT = Struct(">II")


def _flag(byte: int) -> bool:
    """The ``aged`` byte: 0 or 1, nothing else, so each header has one
    encoding."""
    if byte > 1:
        raise HeaderError(f"aged flag byte is {byte}, not 0 or 1")
    return byte == 1


class _Codec:
    """Precompiled wire codec for one extension-feature combination."""

    __slots__ = ("struct", "size", "names", "fields", "absent", "nones", "ipv4", "from_wire")

    def __init__(self, ext_bits: int) -> None:
        rows = [row for row in LAYOUT if ext_bits & row.feature]
        absent = [row.name for row in LAYOUT if not ext_bits & row.feature and row.kind != "flag"]
        self.struct = Struct(_CORE_STRUCT.format + "".join(row.code for row in rows))
        self.size = self.struct.size
        self.names = tuple(row.name for row in rows)
        #: ``(config_id, experiment_id, *names)``: what ``encode`` packs,
        #: and what ``validate`` requires to be set.
        self.fields = attrgetter("config_id", "experiment_id", *self.names)
        #: The optional fields this combination leaves out, behind the
        #: class constant ``slot`` so the result has one shape for any
        #: count; ``nones`` is what it reads on a valid header.
        self.absent = attrgetter("slot", *absent)
        self.nones = self.absent(MmtHeader())
        #: Positions among ``names`` whose values convert on the wire.
        self.ipv4 = tuple(i for i, row in enumerate(rows) if row.kind == "ipv4")
        self.from_wire = tuple(
            (i, unpack_ipv4 if row.kind == "ipv4" else _flag)
            for i, row in enumerate(rows)
            if row.kind != "int"
        )


@dataclass(slots=True)
class MmtHeader(Header):
    """A fully-parsed MMT header (core + active extension fields).

    Extension attributes must be set iff the corresponding feature bit
    is active; :meth:`validate` (called by :meth:`encode`) enforces it.
    Test a feature int-vs-int: ``header.features._value_ & BITS.X``.
    The extension attributes are :data:`LAYOUT`'s fields, in its order.
    """

    config_id: int = 0
    features: Feature = Feature.NONE
    msg_type: MsgType = MsgType.DATA
    ack_scheme: AckScheme = AckScheme.NONE
    experiment_id: int = 0

    seq: int | None = None
    buffer_addr: str | None = None
    deadline_ns: int | None = None
    notify_addr: str | None = None
    age_ns: int | None = None
    age_budget_ns: int | None = None
    aged: bool = False
    pace_rate_mbps: int | None = None
    source_addr: str | None = None
    dup_group: int | None = None
    dup_copies: int | None = None
    flow_id: int | None = None
    #: The feature word :meth:`validate` last passed; -1 for none.
    _validated: int = field(default=-1, init=False, repr=False, compare=False)

    slot = "mmt"

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
        return MmtHeader(*_INIT_FIELDS(self))

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

    # -- validation -----------------------------------------------------------

    def validate(self) -> None:
        """Check field presence matches active feature bits."""
        if not 0 <= self.config_id <= 0xFF:
            raise HeaderError(f"config_id out of range: {self.config_id}")
        if not 0 <= self.experiment_id <= 0xFFFFFFFF:
            raise HeaderError(f"experiment_id out of range: {self.experiment_id}")
        if self.msg_type not in _MSG_TYPES:
            raise HeaderError(f"msg_type {self.msg_type!r} is not a MsgType")
        if self.ack_scheme not in _ACK_SCHEMES:
            raise HeaderError(f"ack_scheme {self.ack_scheme!r} is not an AckScheme")
        bits = int(self.features)
        codec = _CODECS[bits & _EXT_MASK]
        if None in codec.fields(self) or codec.absent(self) != codec.nones:
            # Name the first offending field in wire order.
            for row in LAYOUT:
                active = bits & row.feature
                value = getattr(self, row.name)
                if active and value is None:
                    raise HeaderError(f"{row.feature.name} active but {row.name} is unset")
                if not active and value is not None and row.kind != "flag":
                    raise HeaderError(f"{row.name} set but {row.feature.name} inactive")
        flow_id = self.flow_id
        if flow_id is not None and not 0 <= flow_id <= 0xFFFF:
            raise HeaderError(f"flow_id out of range: {flow_id}")
        aged = self.aged
        if aged not in (False, True):
            raise HeaderError(f"aged flag is {aged!r}, not 0 or 1")
        if aged and not bits & BITS.AGE_TRACKING:
            raise HeaderError("aged flag set without AGE_TRACKING")
        # Validate-once: encode() trusts this verdict while the feature
        # word stays the one checked here.
        self._validated = bits

    # -- codec ------------------------------------------------------------------

    def encode(self) -> bytes:
        """Serialize to network-order bytes.

        Validates once per header configuration: the first encode after
        construction, or with a feature word other than the one last
        validated, validates; later encodes reuse the verdict.
        """
        features = self.features
        if self._validated != features:
            self.validate()
        codec = _CODECS[int(features) & _EXT_MASK]
        config_id, experiment_id, *values = codec.fields(self)
        for index in codec.ipv4:
            values[index] = pack_ipv4(values[index])
        config_data = pack_config_data(features, self.msg_type, self.ack_scheme)
        try:
            return codec.struct.pack((config_id << 24) | config_data, experiment_id, *values)
        except StructError as exc:  # a field out of its struct range
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
        word, experiment_id = _CORE_STRUCT.unpack_from(data)
        try:
            features, msg_type, ack_scheme = unpack_config_data(word & CONFIG_DATA_MAX)
        except ValueError as exc:
            raise HeaderError(f"bad configuration data: {exc}") from None
        codec = _CODECS[int(features) & _EXT_MASK]
        if len(data) < codec.size:
            raise HeaderError("truncated extension field")
        _word, _experiment_id, *values = codec.struct.unpack_from(data)
        for index, convert in codec.from_wire:
            values[index] = convert(values[index])
        header = cls(
            config_id=word >> 24,
            features=features,
            msg_type=msg_type,
            ack_scheme=ack_scheme,
            experiment_id=experiment_id,
            **dict(zip(codec.names, values)),
        )
        header.validate()
        return header, codec.size


#: Every constructor argument of :class:`MmtHeader`, in order.
_INIT_FIELDS = attrgetter(*(f.name for f in fields(MmtHeader) if f.init))

#: ext-bits → codec, filled eagerly for all 256 extension combinations,
#: so lookups never miss.
_CODECS: dict[int, _Codec] = {}
for _combo in range(1 << len(_EXT_FEATURES)):
    _bits = sum(f for i, f in enumerate(_EXT_FEATURES) if _combo >> i & 1)
    _CODECS[_bits] = _Codec(_bits)

#: raw feature word → total header size. Keyed on the *unmasked* value
#: so ``size_bytes`` needs no bitwise-and on the (slow) IntFlag; filled
#: lazily because non-extension bits (flow control, encryption, ...)
#: can appear in any combination.
_SIZE_BY_FEATURES: dict[int, int] = {
    bits: codec.size for bits, codec in _CODECS.items()
}
