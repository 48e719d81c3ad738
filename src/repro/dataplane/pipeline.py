"""A P4-style match-action pipeline model with Tofino-like constraints.

The paper restricts in-network support to "conservative, header-based
processing, using features that existing P4 hardware supports well"
(§5). This module models that envelope:

- **headers only** — a :class:`PacketView` exposes *header fields* by
  dotted path (``"mmt.seq"``, ``"ip.dscp"``); the payload is not
  reachable through it, so programs physically cannot do payload
  processing;
- **no floats** — P4/Tofino has no floating-point types [Fingerhut
  2020]; every value written through the view must be an ``int``, a
  ``bool``, or an address string (which hardware holds as bits);
- **match-action tables** — exact / ternary / LPM / range matching,
  priority-ordered entries, a default action, all populated by a
  control plane at configuration time;
- **stateful registers** — bounded integer arrays
  (:class:`RegisterArray`), the mechanism behind in-flight sequence
  numbering and rate-limited signal generation;
- **intrinsic metadata** — ingress port, a timestamp, egress spec,
  clone/mirror lists, and digest-like generated packets.

The model favors fidelity of *restrictions* over cycle accuracy: it
will reject programs that could not run on the pilot's hardware, which
is the property the reproduction needs.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable

from ..core.header import MmtHeader
from ..netsim.headers import EthernetHeader, Header, Ipv4Header, TcpHeader, UdpHeader
from ..netsim.packet import Packet


class PipelineError(RuntimeError):
    """Raised when a program violates the dataplane constraint envelope."""


#: Header name → type, the parse graph the view understands.
HEADER_TYPES: dict[str, type[Header]] = {
    "eth": EthernetHeader,
    "ip": Ipv4Header,
    "udp": UdpHeader,
    "tcp": TcpHeader,
    "mmt": MmtHeader,
}


@lru_cache(maxsize=4096)
def _parse_path(path: str) -> tuple[str, type[Header], str]:
    """``"header.field"`` → (header name, header type, field)."""
    try:
        header_name, attr = path.split(".", 1)
    except ValueError:
        raise PipelineError(f"field path {path!r} must be 'header.field'") from None
    header_type = HEADER_TYPES.get(header_name)
    if header_type is None:
        raise PipelineError(f"unknown header {header_name!r} in {path!r}")
    return header_name, header_type, attr


@lru_cache(maxsize=4096)
def _check_field(header_class: type[Header], attr: str, path: str) -> None:
    """Raise unless ``attr`` is a header field of ``header_class``
    (a legal pair is remembered, so it is checked once)."""
    if attr.startswith("_") or not hasattr(header_class, attr):
        raise PipelineError(f"unknown field {path!r}")
    if attr in ("payload", "payload_size", "headers", "meta"):
        raise PipelineError(f"field {path!r} is not a header field")


#: Field values may be ints, bools, or address-like strings — never floats
#: (Tofino has no float types) and never bytes (that would be payload).
_ALLOWED_VALUE_TYPES = (int, bool, str)

#: ``PacketView.get(path, required=False)`` on a packet without the
#: header (``None`` is a legal field value).
_ABSENT = object()

#: Memoized LPM machinery: prefix string → (version, network int, mask
#: int) and address string → (version, int). Tables are configured once
#: but matched per packet, so parsing with :mod:`ipaddress` on every
#: lookup dominated table apply time; real hardware compiles prefixes
#: into TCAM entries at table-programming time for the same reason.
_LPM_PREFIX_CACHE: dict[str, tuple[int, int, int] | None] = {}
_LPM_ADDR_CACHE: dict[object, tuple[int, int] | None] = {}


def _lpm_match(pattern: str, value: object) -> bool:
    prefix = _LPM_PREFIX_CACHE.get(pattern)
    if prefix is None and pattern not in _LPM_PREFIX_CACHE:
        try:
            network = ipaddress.ip_network(pattern, strict=False)
            prefix = (
                network.version,
                int(network.network_address),
                int(network.netmask),
            )
        except ValueError:
            prefix = None
        _LPM_PREFIX_CACHE[pattern] = prefix
    if prefix is None:
        return False
    addr = _LPM_ADDR_CACHE.get(value)
    if addr is None and value not in _LPM_ADDR_CACHE:
        try:
            parsed = ipaddress.ip_address(value)
            addr = (parsed.version, int(parsed))
        except ValueError:
            addr = None
        if len(_LPM_ADDR_CACHE) < 65536:
            _LPM_ADDR_CACHE[value] = addr
    if addr is None or addr[0] != prefix[0]:
        return False
    return (addr[1] & prefix[2]) == prefix[1]


class RegisterArray:
    """A bounded array of W-bit integers, as a P4 register extern."""

    def __init__(self, name: str, size: int, width_bits: int = 32) -> None:
        if size <= 0:
            raise PipelineError(f"register {name!r}: size must be positive")
        if width_bits <= 0 or width_bits > 64:
            raise PipelineError(f"register {name!r}: width must be 1..64 bits")
        self.name = name
        self.size = size
        self.width_bits = width_bits
        self._mask = (1 << width_bits) - 1
        self._cells = [0] * size

    def read(self, index: int) -> int:
        return self._cells[self._check(index)]

    def write(self, index: int, value: int) -> None:
        if not isinstance(value, int) or isinstance(value, bool):
            raise PipelineError(f"register {self.name!r}: value must be int")
        self._cells[self._check(index)] = value & self._mask

    def reset(self) -> None:
        """Zero every cell — what an element restart does to its state."""
        self._cells = [0] * self.size

    def read_add(self, index: int, delta: int = 1) -> int:
        """Atomically return the current value then add ``delta`` (the
        read-modify-write P4 registers support)."""
        i = self._check(index)
        current = self._cells[i]
        self._cells[i] = (current + delta) & self._mask
        return current

    def _check(self, index: int) -> int:
        if not isinstance(index, int) or isinstance(index, bool):
            raise PipelineError(f"register {self.name!r}: index must be int")
        if not 0 <= index < self.size:
            raise PipelineError(
                f"register {self.name!r}: index {index} out of range 0..{self.size - 1}"
            )
        return index


#: Knuth multiplicative-hash constant (odd, near 2^16/phi) used to
#: spread flow ids across register indexes.
_FLOW_HASH_MULT = 40503


def flow_register_index(experiment_id: int, flow_id: int, size: int) -> int:
    """Register index for per-``(experiment, flow)`` dataplane state.

    The index a program uses to key register cells when several
    concurrent flows of one experiment cross the same element: the flow
    id is spread by a multiplicative hash so adjacent flow ids do not
    collide modulo small register sizes. Flow 0 (headers without the
    FLOW_ID extension) reduces to the historical per-experiment index,
    keeping single-flow register layouts — and thus replay traces —
    unchanged.
    """
    return (experiment_id + flow_id * _FLOW_HASH_MULT) % size


class PacketView:
    """Guarded access to a packet's *headers only*.

    Programs read and write fields by dotted path. Attempting to touch
    anything but a known header field — in particular the payload —
    raises :class:`PipelineError`.
    """

    def __init__(self, packet: Packet) -> None:
        self._packet = packet

    def has_header(self, name: str) -> bool:
        header_type = HEADER_TYPES.get(name)
        if header_type is None:
            raise PipelineError(f"unknown header {name!r}")
        return self._packet.has(header_type)

    def get(self, path: str, *, required: bool = True) -> Any:
        """The field at ``path``; a packet lacking the header raises,
        or yields ``_ABSENT`` when not ``required``."""
        header, attr = self._resolve(path, required)
        if header is None:
            return _ABSENT
        value = getattr(header, attr)
        if value is not None and not isinstance(value, _ALLOWED_VALUE_TYPES):
            raise PipelineError(f"field {path!r} has non-dataplane type {type(value)}")
        return value

    def set(self, path: str, value: Any) -> None:
        header, attr = self._resolve(path)
        if value is not None and not isinstance(value, _ALLOWED_VALUE_TYPES):
            raise PipelineError(
                f"cannot write {type(value).__name__} to {path!r}: "
                "dataplane values are ints, bools, or addresses"
            )
        if isinstance(value, float):
            raise PipelineError("floating point is not available in the dataplane")
        setattr(header, attr, value)

    def mmt(self) -> MmtHeader:
        """The MMT header itself — header-only by construction, so
        handing out the object keeps within the envelope."""
        header = self._packet.find(MmtHeader)
        if header is None:
            raise PipelineError("packet carries no MMT header")
        return header

    @property
    def packet_size_bytes(self) -> int:
        """Total packet length is available to hardware (for metering)."""
        return self._packet.size_bytes

    # Simulation bookkeeping: deployments carry PTP-synchronized
    # timestamps in wire fields; the simulator's globally-synchronous
    # clock lets us keep the activation instant in packet meta instead
    # (see repro.core.aging). These two methods are that substitute —
    # they accept only ints so they cannot smuggle payload processing.

    def sim_stamp(self, key: str, value: int) -> None:
        if not isinstance(value, int) or isinstance(value, bool):
            raise PipelineError("sim_stamp values must be ints (timestamps)")
        self._packet.meta[key] = value

    def sim_read(self, key: str) -> int | None:
        value = self._packet.meta.get(key)
        if value is not None and (not isinstance(value, int) or isinstance(value, bool)):
            raise PipelineError(f"sim meta {key!r} is not an int")
        return value

    def _resolve(self, path: str, required: bool = True) -> tuple[Header | None, str]:
        header_name, header_type, attr = _parse_path(path)
        header = self._packet.find(header_type)
        if header is None:
            if not required:
                return None, attr
            raise PipelineError(f"packet has no {header_name!r} header")
        _check_field(type(header), attr, path)
        return header, attr


@dataclass
class Metadata:
    """Per-packet intrinsic metadata (P4 standard_metadata analogue)."""

    ingress_port: str = ""
    now_ns: int = 0
    #: Set by actions to steer the packet; empty string = use the
    #: element's normal forwarding (routing table).
    egress_spec: str = ""
    drop: bool = False
    #: Destination IPs for in-network duplicated copies (§5.1 "streams
    #: can be duplicated in the network"); the element resolves routes.
    clones: list[str] = field(default_factory=list)
    #: Set by buffer-tap actions: the hosting element should mirror this
    #: packet into its retransmission buffer after the pipeline.
    mirror_to_buffer: bool = False
    #: Control packets generated by the pipeline (digest-to-CPU style),
    #: as (dst_ip, MmtHeader, payload bytes) triples.
    generated: list[tuple[str, MmtHeader, bytes]] = field(default_factory=list)
    #: Scratch space for user metadata between tables (ints/strs only).
    scratch: dict[str, int | str | bool] = field(default_factory=dict)

    def mark_to_drop(self) -> None:
        self.drop = True

    def clone_to(self, egress: str) -> None:
        self.clones.append(egress)

    def emit(self, dst_ip: str, header: MmtHeader, payload: bytes = b"") -> None:
        self.generated.append((dst_ip, header, payload))


ActionFn = Callable[[PacketView, Metadata, dict[str, Any]], None]


@dataclass(frozen=True)
class Action:
    """A named dataplane action; ``fn(view, meta, params)``."""

    name: str
    fn: ActionFn

    def __call__(self, view: PacketView, meta: Metadata, params: dict[str, Any]) -> None:
        self.fn(view, meta, params)


NOP = Action("nop", lambda _view, _meta, _params: None)
DROP = Action("drop", lambda _view, meta, _params: meta.mark_to_drop())


class MatchKind:
    """Table match kinds (exact/ternary/lpm/range)."""
    EXACT = "exact"
    TERNARY = "ternary"
    LPM = "lpm"
    RANGE = "range"

    ALL = (EXACT, TERNARY, LPM, RANGE)


@dataclass
class TableEntry:
    """One table entry: key patterns → action(params)."""

    patterns: tuple[Any, ...]
    action: Action
    params: dict[str, Any] = field(default_factory=dict)
    priority: int = 0
    hits: int = 0


class Table:
    """A priority-ordered match-action table.

    ``keys`` are field paths (or ``"meta.<name>"`` for intrinsic
    metadata); ``match_kinds`` aligns with keys. Patterns per kind:

    - exact: the value itself (or the wildcard ``None``);
    - ternary: ``(value, mask)`` over ints, or ``None``;
    - lpm: an ``"a.b.c.d/len"`` prefix string, or ``None``;
    - range: ``(lo, hi)`` inclusive over ints, or ``None``.
    """

    def __init__(
        self,
        name: str,
        keys: list[str],
        match_kinds: list[str] | None = None,
        default_action: Action = NOP,
        default_params: dict[str, Any] | None = None,
        max_entries: int = 4096,
    ) -> None:
        self.name = name
        self.keys = keys
        self.match_kinds = match_kinds or [MatchKind.EXACT] * len(keys)
        if len(self.match_kinds) != len(keys):
            raise PipelineError(f"table {name!r}: match_kinds/keys length mismatch")
        for kind in self.match_kinds:
            if kind not in MatchKind.ALL:
                raise PipelineError(f"table {name!r}: unknown match kind {kind!r}")
        self.default_action = default_action
        self.default_params = default_params or {}
        self.max_entries = max_entries
        self.entries: list[TableEntry] = []
        self.lookups = 0
        self.default_hits = 0

    def add_entry(
        self,
        patterns: tuple[Any, ...] | list[Any],
        action: Action,
        params: dict[str, Any] | None = None,
        priority: int = 0,
    ) -> TableEntry:
        if len(self.entries) >= self.max_entries:
            raise PipelineError(f"table {self.name!r} is full ({self.max_entries})")
        patterns = tuple(patterns)
        if len(patterns) != len(self.keys):
            raise PipelineError(
                f"table {self.name!r}: entry has {len(patterns)} patterns, "
                f"needs {len(self.keys)}"
            )
        entry = TableEntry(patterns, action, params or {}, priority)
        self.entries.append(entry)
        self.entries.sort(key=lambda e: -e.priority)
        return entry

    def apply(self, view: PacketView, meta: Metadata) -> None:
        self.lookups += 1
        key = self._build_key(view, meta)
        if key is None:
            self.default_hits += 1
            self.default_action(view, meta, self.default_params)
            return
        for entry in self.entries:
            if self._matches(entry.patterns, key):
                entry.hits += 1
                entry.action(view, meta, entry.params)
                return
        self.default_hits += 1
        self.default_action(view, meta, self.default_params)

    def _build_key(self, view: PacketView, meta: Metadata) -> tuple[Any, ...] | None:
        values = []
        for path in self.keys:
            if path.startswith("meta."):
                attr = path[5:]
                if attr in meta.scratch:
                    values.append(meta.scratch[attr])
                else:
                    values.append(getattr(meta, attr, None))
                continue
            value = view.get(path, required=False)
            if value is _ABSENT:
                return None  # parser would not have extracted this header
            values.append(value)
        return tuple(values)

    def _matches(self, patterns: tuple[Any, ...], key: tuple[Any, ...]) -> bool:
        for kind, pattern, value in zip(self.match_kinds, patterns, key):
            if pattern is None:
                continue
            if kind == MatchKind.EXACT:
                if value != pattern:
                    return False
            elif kind == MatchKind.TERNARY:
                want, mask = pattern
                if not isinstance(value, int):
                    return False
                if (value & mask) != (want & mask):
                    return False
            elif kind == MatchKind.LPM:
                if not _lpm_match(pattern, value):
                    return False
            elif kind == MatchKind.RANGE:
                lo, hi = pattern
                if not isinstance(value, int) or not lo <= value <= hi:
                    return False
        return True


class Pipeline:
    """An ordered sequence of tables with shared registers."""

    def __init__(self, name: str, stages: int = 12) -> None:
        self.name = name
        self.stages = stages
        self.tables: list[Table] = []
        self.registers: dict[str, RegisterArray] = {}
        self.packets_processed = 0

    def add_table(self, table: Table) -> Table:
        if len(self.tables) >= self.stages:
            raise PipelineError(
                f"pipeline {self.name!r}: exceeded {self.stages} stages"
            )
        self.tables.append(table)
        return table

    def add_register(self, name: str, size: int, width_bits: int = 32) -> RegisterArray:
        if name in self.registers:
            raise PipelineError(f"register {name!r} already exists")
        register = RegisterArray(name, size, width_bits)
        self.registers[name] = register
        return register

    def register(self, name: str) -> RegisterArray:
        register = self.registers.get(name)
        if register is None:
            raise PipelineError(f"no register named {name!r}")
        return register

    def reset_registers(self) -> None:
        """Zero all register arrays (element restart: stateful memory
        does not survive a bitstream/image reload)."""
        for register in self.registers.values():
            register.reset()

    def process(self, packet: Packet, meta: Metadata) -> Metadata:
        """Run the packet through every table in order."""
        self.packets_processed += 1
        view = PacketView(packet)
        for table in self.tables:
            table.apply(view, meta)
            if meta.drop:
                break
        return meta
