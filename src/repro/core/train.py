"""Packet-train codec: multi-header encode/decode in one struct call.

EJ-FAT sustains its event rates by treating packet *trains* — bursts of
back-to-back datagrams belonging to one event window — as the unit of
work instead of individual packets (arXiv:2303.16351), and Transport
Layer Networking argues the same economy for in-network processing
(arXiv:2204.02861). This module brings that idea to the MMT codec:

- :func:`encode_train` serializes N headers back-to-back into a
  preallocated ``bytearray`` (or a fresh one) and returns a
  ``memoryview`` of the written region. When every header in the train
  shares one extension-feature combination — the overwhelmingly common
  case: a DAQ burst is one mode — the whole train is packed by a
  *single* precompiled :class:`struct.Struct` whose format is the
  per-header format repeated N times, so the per-packet cost collapses
  to appending values to one flat argument list.
- :func:`decode_train` is the inverse: it probes the feature bits of
  each header (three raw byte reads, no object churn), slices the data
  into maximal homogeneous runs, and unpacks each run with one
  repeated-struct call. Headers built here skip :meth:`MmtHeader.validate`
  — field *presence* is correct by construction (exactly the active
  extension fields are assigned) and every range is enforced by the
  struct widths — and are marked validated for the validate-once
  ``encode()`` contract.

Byte identity: a train's bytes are exactly the concatenation of each
header's single-packet ``encode()`` — the repeated format is the same
struct segments laid end to end — so golden wire digests cannot move.
``tests/core/test_train_fastpath.py`` pins this against the retained
reference codec across every extension combination, and pins that a
1-packet train is byte-identical to the single-packet fast path.

Heterogeneous trains (mixed feature bits) remain correct: they fall
back to per-header encode/decode at run boundaries, trading speed for
generality run by run.
"""

from __future__ import annotations

from struct import Struct
from typing import Sequence

from .features import (
    AckScheme,
    CONFIG_DATA_MAX,
    Feature,
    MsgType,
    pack_config_data,
    unpack_config_data,
)
from .header import (
    _CODECS,
    _EXT_MASK,
    CORE_HEADER_BYTES,
    HeaderError,
    MmtHeader,
    pack_ipv4,
    unpack_ipv4,
)

__all__ = ["TrainBuffer", "decode_train", "encode_train", "train_size_bytes"]

#: (ext bits, train length) → repeated Struct. Bounded: a process uses a
#: handful of (mode, train-size) pairs, but a pathological caller could
#: sweep sizes, so evictions keep it from growing without bound.
_TRAIN_STRUCTS: dict[tuple[int, int], Struct] = {}
_TRAIN_STRUCTS_MAX = 1024

#: (features, msg_type, ack_scheme) ints → 24-bit config word. The word
#: is a pure function of the three enums; memoizing skips re-validating
#: ranges for every header of a train.
_CONFIG_WORDS: dict[tuple[int, int, int], int] = {}

#: config-data word → (Feature, MsgType, AckScheme) objects, so decode
#: builds enum instances once per distinct mode, not once per header.
_CONFIG_PARTS: dict[int, tuple[Feature, MsgType, AckScheme]] = {}


def _train_struct(bits: int, count: int) -> Struct:
    """The precompiled Struct for ``count`` homogeneous headers."""
    key = (bits, count)
    cached = _TRAIN_STRUCTS.get(key)
    if cached is None:
        if len(_TRAIN_STRUCTS) >= _TRAIN_STRUCTS_MAX:
            _TRAIN_STRUCTS.clear()
        body = _CODECS[bits].struct.format[1:]  # strip the ">" prefix
        cached = Struct(">" + body * count)
        _TRAIN_STRUCTS[key] = cached
    return cached


def _config_word(header: MmtHeader) -> int:
    key = (int(header.features), int(header.msg_type), int(header.ack_scheme))
    word = _CONFIG_WORDS.get(key)
    if word is None:
        word = pack_config_data(header.features, header.msg_type, header.ack_scheme)
        if word > CONFIG_DATA_MAX:  # pragma: no cover - pack_config_data guards
            raise HeaderError(f"config data overflow: {word:#x}")
        if len(_CONFIG_WORDS) < 65536:
            _CONFIG_WORDS[key] = word
    return word


class TrainBuffer:
    """A reusable preallocated encode target.

    ``reserve(n)`` returns the backing ``bytearray``, grown (by
    doubling) only when ``n`` exceeds the current capacity — steady
    -state train encoding allocates nothing.
    """

    __slots__ = ("data",)

    def __init__(self, capacity: int = 1 << 16) -> None:
        self.data = bytearray(max(capacity, 1))

    def reserve(self, nbytes: int) -> bytearray:
        data = self.data
        if len(data) < nbytes:
            capacity = len(data)
            while capacity < nbytes:
                capacity *= 2
            self.data = data = bytearray(capacity)
        return data


def train_size_bytes(headers: Sequence[MmtHeader]) -> int:
    """Total wire bytes of a train (O(1) for homogeneous trains)."""
    if not headers:
        return 0
    first_bits = int(headers[0].features) & _EXT_MASK
    for header in headers:
        if int(header.features) & _EXT_MASK != first_bits:
            return sum(header.size_bytes for header in headers)
    return _CODECS[first_bits].size * len(headers)


def _append_fields(args: list, header: MmtHeader, bits: int, config_data: int) -> None:
    """Append one header's wire fields to a flat argument list.

    Mirrors :meth:`MmtHeader.encode` branch for branch (same masking,
    same field order) so train bytes match single-packet bytes exactly.
    """
    args.append(header.config_id)
    args.append((config_data >> 16) & 0xFF)
    args.append(config_data & 0xFFFF)
    args.append(header.experiment_id)
    if bits & 0x01:  # SEQUENCED
        args.append(header.seq & 0xFFFFFFFF)
    if bits & 0x02:  # RETRANSMISSION
        args.append(pack_ipv4(header.buffer_addr))
    if bits & 0x04:  # TIMELINESS
        args.append(header.deadline_ns)
        args.append(pack_ipv4(header.notify_addr))
    if bits & 0x08:  # AGE_TRACKING
        args.append(header.age_ns)
        args.append(header.age_budget_ns)
        args.append(1 if header.aged else 0)
    if bits & 0x10:  # PACING
        args.append(header.pace_rate_mbps)
    if bits & 0x80:  # BACKPRESSURE
        args.append(pack_ipv4(header.source_addr))
    if bits & 0x100:  # DUPLICATION
        args.append(header.dup_group)
        args.append(header.dup_copies)
    if bits & 0x400:  # FLOW_ID
        args.append(header.flow_id)


def encode_train(
    headers: Sequence[MmtHeader],
    buffer: "bytearray | TrainBuffer | None" = None,
    offset: int = 0,
) -> memoryview:
    """Serialize ``headers`` back-to-back; return a view of the bytes.

    With ``buffer`` (a preallocated ``bytearray``, or a
    :class:`TrainBuffer` which grows itself as needed) the train is
    packed in place starting at ``offset``; without one an
    exactly-sized buffer is allocated. Each header is validated through
    the validate-once path (a header whose configuration was already
    validated pays nothing), and the result is byte-identical to
    concatenating per-header ``encode()`` calls.
    """
    reserve = buffer.reserve if type(buffer) is TrainBuffer else None
    if reserve is not None:
        buffer = buffer.data
    if not headers:
        return memoryview(buffer if buffer is not None else bytearray(0))[
            offset:offset
        ]
    features0 = headers[0].features
    ext_bits = int(features0) & _EXT_MASK
    homogeneous = True
    for header in headers:
        features = header.features
        if features is not features0 and int(features) & _EXT_MASK != ext_bits:
            homogeneous = False
        if not header._validated:
            header.validate()
    if not homogeneous:
        total = sum(header.size_bytes for header in headers)
        if reserve is not None:
            buffer = reserve(offset + total)
        elif buffer is None:
            buffer = bytearray(total)
        elif len(buffer) < offset + total:
            raise HeaderError(
                f"train needs {offset + total} bytes, buffer has {len(buffer)}"
            )
        position = offset
        for header in headers:
            position += header.encode_into(buffer, position)
        return memoryview(buffer)[offset:position]
    count = len(headers)
    packer = _train_struct(ext_bits, count)
    total = packer.size
    if reserve is not None:
        buffer = reserve(offset + total)
    elif buffer is None:
        buffer = bytearray(total)
    elif len(buffer) < offset + total:
        raise HeaderError(
            f"train needs {offset + total} bytes, buffer has {len(buffer)}"
        )
    # One config word per *mode*, not per header: enum composites are
    # singletons, so three identity tests replace the dict lookup (and
    # its slow IntFlag→int conversions) for every header of the run.
    # The branch pattern inside _append_fields depends only on the
    # extension bits, identical across the run by construction.
    first = headers[0]
    msg0 = first.msg_type
    ack0 = first.ack_scheme
    word0 = _config_word(first)
    args: list = []
    for header in headers:
        if (
            header.features is features0
            and header.msg_type is msg0
            and header.ack_scheme is ack0
        ):
            word = word0
        else:
            word = _config_word(header)
        _append_fields(args, header, ext_bits, word)
    try:
        packer.pack_into(buffer, offset, *args)
    except Exception as exc:  # field out of struct range
        raise HeaderError(f"cannot encode train: {exc}") from exc
    return memoryview(buffer)[offset : offset + total]


def _peek_bits(data, offset: int) -> int:
    """Extension-feature bits of the header starting at ``offset``.

    The feature word is the low 16 bits of the 24-bit config-data field
    — wire bytes 2..3 of the core header — so two raw byte reads
    suffice; no object is built.
    """
    return ((data[offset + 2] << 8) | data[offset + 3]) & _EXT_MASK


def _build_headers(
    values: tuple, bits: int, count: int, fields_per_header: int
) -> list[MmtHeader]:
    """Materialize ``count`` headers from one flat unpacked tuple.

    Headers are built with ``__new__`` and ``object.__setattr__`` —
    skipping the dataclass ``__init__`` — because every field is
    assigned exactly once here, and the verdict is stamped by hand at
    the end: ``_validated = True`` (presence is correct by construction
    and ranges are enforced by the struct widths, exactly the
    validate-once state ``decode_prefix`` leaves headers in).
    """
    headers: list[MmtHeader] = []
    append = headers.append
    new = MmtHeader.__new__
    oset = object.__setattr__
    index = 0
    for _ in range(count):
        config_data = (values[index + 1] << 16) | values[index + 2]
        parts = _CONFIG_PARTS.get(config_data)
        if parts is None:
            parts = unpack_config_data(config_data)
            if len(_CONFIG_PARTS) < 65536:
                _CONFIG_PARTS[config_data] = parts
        header = new(MmtHeader)
        oset(header, "config_id", values[index])
        features, msg_type, ack_scheme = parts
        oset(header, "features", features)
        oset(header, "msg_type", msg_type)
        oset(header, "ack_scheme", ack_scheme)
        oset(header, "experiment_id", values[index + 3])
        position = index + 4
        if bits & 0x01:  # SEQUENCED
            oset(header, "seq", values[position])
            position += 1
        else:
            oset(header, "seq", None)
        if bits & 0x02:  # RETRANSMISSION
            oset(header, "buffer_addr", unpack_ipv4(values[position]))
            position += 1
        else:
            oset(header, "buffer_addr", None)
        if bits & 0x04:  # TIMELINESS
            oset(header, "deadline_ns", values[position])
            oset(header, "notify_addr", unpack_ipv4(values[position + 1]))
            position += 2
        else:
            oset(header, "deadline_ns", None)
            oset(header, "notify_addr", None)
        if bits & 0x08:  # AGE_TRACKING
            oset(header, "age_ns", values[position])
            oset(header, "age_budget_ns", values[position + 1])
            oset(header, "aged", bool(values[position + 2] & 1))
            position += 3
        else:
            oset(header, "age_ns", None)
            oset(header, "age_budget_ns", None)
            oset(header, "aged", False)
        if bits & 0x10:  # PACING
            oset(header, "pace_rate_mbps", values[position])
            position += 1
        else:
            oset(header, "pace_rate_mbps", None)
        if bits & 0x80:  # BACKPRESSURE
            oset(header, "source_addr", unpack_ipv4(values[position]))
            position += 1
        else:
            oset(header, "source_addr", None)
        if bits & 0x100:  # DUPLICATION
            oset(header, "dup_group", values[position])
            oset(header, "dup_copies", values[position + 1])
            position += 2
        else:
            oset(header, "dup_group", None)
            oset(header, "dup_copies", None)
        if bits & 0x400:  # FLOW_ID
            oset(header, "flow_id", values[position])
        else:
            oset(header, "flow_id", None)
        oset(header, "_validated", True)
        append(header)
        index += fields_per_header
    return headers


def decode_train(
    data, count: int | None = None, offset: int = 0
) -> list[MmtHeader]:
    """Parse back-to-back headers from ``data`` (bytes or memoryview).

    With ``count`` exactly that many headers are consumed (trailing
    bytes — e.g. train payload — are the caller's business); without it
    headers are parsed until ``data`` is exhausted, and leftover bytes
    that do not form a whole header are an error, mirroring
    :meth:`MmtHeader.decode`.

    Maximal homogeneous runs are unpacked with one repeated-struct call
    each; a train of one mode — the common case — costs a single
    ``unpack_from`` regardless of length.
    """
    end = len(data)
    headers: list[MmtHeader] = []
    remaining = count
    position = offset
    while (remaining is None and position < end) or (
        remaining is not None and remaining > 0
    ):
        if position + CORE_HEADER_BYTES > end:
            raise HeaderError(
                f"truncated core header in train at offset {position}"
            )
        bits = _peek_bits(data, position)
        size = _CODECS[bits].size
        # Extend the homogeneous run as far as the bits repeat.
        run = 1
        probe = position + size
        while probe + CORE_HEADER_BYTES <= end and (
            remaining is None or run < remaining
        ):
            if _peek_bits(data, probe) != bits:
                break
            run += 1
            probe += size
        run_end = position + size * run
        if run_end > end:
            raise HeaderError(
                f"truncated extension field in train at offset {position}"
            )
        codec = _CODECS[bits]
        fields_per_header = len(codec.struct.format) - 1
        values = _train_struct(bits, run).unpack_from(data, position)
        headers.extend(_build_headers(values, bits, run, fields_per_header))
        position = run_end
        if remaining is not None:
            remaining -= run
    if remaining is None and position != end:
        raise HeaderError(
            f"{end - position} trailing bytes after train"
        )
    return headers
