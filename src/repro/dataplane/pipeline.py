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
- **match-action tables** — exact / ternary / range matching,
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

from bisect import insort
from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter, itemgetter
from typing import Any, Callable

from ..core.header import MmtHeader
from ..core.modes import Mode, TransitionContext, transition
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

#: Fields that set their header's wire size. Writing one through the
#: view would leave the packet's ``size_bytes`` stale, so the view
#: refuses; a mode rewrite goes through :meth:`PacketView.transition`,
#: which resizes the packet with it.
_SIZE_FIELDS = frozenset({"mmt.features", "tcp.sack_blocks"})


#: Header name → (a reader of the packet slot that holds it, the type to
#: check when that slot can hold another kind too, else ``None``).
_SLOT_READERS = {
    name: (attrgetter(kind.slot),
           kind if sum(k.slot == kind.slot for k in HEADER_TYPES.values()) > 1 else None)
    for name, kind in HEADER_TYPES.items()
}


@lru_cache(maxsize=4096)
def _parse_path(path: str) -> tuple[str, Callable, type[Header] | None, str, bool]:
    """``"header.field"`` → (header name, its slot reader and type check
    as in ``_SLOT_READERS``, field, whether the view may write it);
    raises unless the field is one of that header's."""
    try:
        header_name, attr = path.split(".", 1)
    except ValueError:
        raise PipelineError(f"field path {path!r} must be 'header.field'") from None
    header_type = HEADER_TYPES.get(header_name)
    if header_type is None:
        raise PipelineError(f"unknown header {header_name!r} in {path!r}")
    if attr.startswith("_") or not hasattr(header_type, attr):
        raise PipelineError(f"unknown field {path!r}")
    return (header_name, *_SLOT_READERS[header_name], attr, path not in _SIZE_FIELDS)


#: Field values may be ints, bools, or address-like strings — never floats
#: (Tofino has no float types) and never bytes (that would be payload).
_ALLOWED_VALUE_TYPES = (int, bool, str)


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

    Programs read and write fields by dotted path; the view reads the
    packet's header slots. Attempting to touch anything but a known
    header field — in particular the payload — raises
    :class:`PipelineError`.
    """

    __slots__ = ("_packet",)

    def __init__(self, packet: Packet) -> None:
        self._packet = packet

    def has_header(self, name: str) -> bool:
        try:
            read, kind = _SLOT_READERS[name]
        except KeyError:
            raise PipelineError(f"unknown header {name!r}") from None
        header = read(self._packet)
        return header is not None and (kind is None or type(header) is kind)

    def get(self, path: str) -> Any:
        """The field at ``path``; a packet lacking the header raises."""
        header_name, read, kind, attr, _writable = _parse_path(path)
        header = read(self._packet)
        if header is None or (kind is not None and type(header) is not kind):
            raise PipelineError(f"packet has no {header_name!r} header")
        value = getattr(header, attr)
        if value is not None and not isinstance(value, _ALLOWED_VALUE_TYPES):
            raise PipelineError(f"field {path!r} has non-dataplane type {type(value)}")
        return value

    def set(self, path: str, value: Any) -> None:
        header_name, read, kind, attr, writable = _parse_path(path)
        if not writable:
            raise PipelineError(f"field {path!r} sets the header's size; it is not writable")
        header = read(self._packet)
        if header is None or (kind is not None and type(header) is not kind):
            raise PipelineError(f"packet has no {header_name!r} header")
        if value is not None and not isinstance(value, _ALLOWED_VALUE_TYPES):
            raise PipelineError(
                f"cannot write {type(value).__name__} to {path!r}: "
                "dataplane values are ints, bools, or addresses"
            )
        setattr(header, attr, value)

    def mmt(self) -> MmtHeader:
        """The MMT header itself — header-only by construction, so
        handing out the object keeps within the envelope."""
        header = self._packet.mmt
        if header is None:
            raise PipelineError("packet carries no MMT header")
        return header

    def transition(self, target: Mode, ctx: TransitionContext) -> None:
        """Rewrite the MMT header into ``target`` (see
        :func:`~repro.core.modes.transition`); the packet's size follows."""
        self._packet.rewrite("mmt", transition, target, ctx)

    @property
    def packet_size_bytes(self) -> int:
        """Total packet length is available to hardware (for metering)."""
        return self._packet.size_bytes

    # Simulation bookkeeping: deployments carry PTP-synchronized
    # timestamps in wire fields; the simulator's globally-synchronous
    # clock lets us keep the activation instant in packet meta instead
    # (see ``AGE_EPOCH_META`` in repro.dataplane.programs). These two
    # methods are that substitute — they accept only ints so they
    # cannot smuggle payload processing.

    def sim_stamp(self, key: str, value: int) -> None:
        if not isinstance(value, int) or isinstance(value, bool):
            raise PipelineError("sim_stamp values must be ints (timestamps)")
        self._packet.meta[key] = value

    def sim_read(self, key: str) -> int | None:
        value = self._packet.meta.get(key)
        if value is not None and (not isinstance(value, int) or isinstance(value, bool)):
            raise PipelineError(f"sim meta {key!r} is not an int")
        return value


class Metadata:
    """Per-packet intrinsic metadata (P4 standard_metadata analogue).

    One is built per packet per element, so it is a slots class, and the
    two containers nearly no packet touches (``clones``, ``generated``)
    are created when first asked for.
    """

    __slots__ = (
        "ingress_port", "now_ns", "queue_occupancy_pct", "egress_spec", "drop",
        "mirror_to_buffer", "_clones", "_generated",
    )

    def __init__(
        self, ingress_port: str = "", now_ns: int = 0, queue_occupancy_pct: int | None = None
    ) -> None:
        self.ingress_port = ingress_port
        self.now_ns = now_ns
        #: Fullest egress queue of the hosting element, in percent.
        self.queue_occupancy_pct = queue_occupancy_pct
        #: Set by actions to steer the packet; empty string = use the
        #: element's normal forwarding (routing table).
        self.egress_spec = ""
        self.drop = False
        #: Set by buffer-tap actions: the hosting element should mirror this
        #: packet into its retransmission buffer after the pipeline.
        self.mirror_to_buffer = False
        self._clones = self._generated = None

    @property
    def clones(self) -> list[str]:
        """Destination IPs for in-network duplicated copies (§5.1 "streams
        can be duplicated in the network"); the element resolves routes."""
        if self._clones is None:
            self._clones = []
        return self._clones

    @property
    def generated(self) -> list[tuple[str, MmtHeader, bytes]]:
        """Control packets generated by the pipeline (digest-to-CPU style),
        as (dst_ip, MmtHeader, payload bytes) triples."""
        if self._generated is None:
            self._generated = []
        return self._generated

    def mark_to_drop(self) -> None:
        self.drop = True

    def clone_to(self, egress: str) -> None:
        self.clones.append(egress)

    def emit(self, dst_ip: str, header: MmtHeader, payload: bytes = b"") -> None:
        self.generated.append((dst_ip, header, payload))


ActionFn = Callable[[PacketView, Metadata, dict[str, Any]], None]


@dataclass(frozen=True)
class Action:
    """A named dataplane action; tables call ``fn(view, meta, params)``."""

    name: str
    fn: ActionFn


NOP = Action("nop", lambda _view, _meta, _params: None)
DROP = Action("drop", lambda _view, meta, _params: meta.mark_to_drop())


class MatchKind:
    """Table match kinds (exact/ternary/range)."""
    EXACT = "exact"
    TERNARY = "ternary"
    RANGE = "range"

    ALL = (EXACT, TERNARY, RANGE)


@dataclass
class TableEntry:
    """One table entry: key patterns → action(params)."""

    patterns: tuple[Any, ...]
    action: Action
    params: dict[str, Any] = field(default_factory=dict)
    priority: int = 0
    hits: int = 0


def _hashable(pattern: Any) -> bool:
    try:
        hash(pattern)
    except TypeError:
        return False
    return True


def _matcher(kind: str, pattern: Any) -> Callable[[Any], bool]:
    """One non-wildcard pattern, parsed once: value → does it match."""
    if kind == MatchKind.EXACT:
        return lambda value: not value != pattern
    if kind == MatchKind.TERNARY:
        want, mask = pattern
        want &= mask
        return lambda value: isinstance(value, int) and value & mask == want
    lo, hi = pattern  # MatchKind.RANGE
    return lambda value: isinstance(value, int) and lo <= value <= hi


class Table:
    """A priority-ordered match-action table.

    ``keys`` are field paths (or ``"meta.<name>"`` for intrinsic
    metadata); ``match_kinds`` aligns with keys. Patterns per kind:

    - exact: the value itself (or the wildcard ``None``);
    - ternary: ``(value, mask)`` over ints, or ``None``;
    - range: ``(lo, hi)`` inclusive over ints, or ``None``.

    Like the hardware it models, a table is *compiled* when the control
    plane programs it and does one lookup per packet: :meth:`add_entry`
    and :meth:`clear` only mark it stale, and the next
    :meth:`Pipeline.process` that reaches it rebuilds the key readers and
    the match structure below once.
    Change ``entries`` only through those two methods.
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
        #: Highest priority first, insertion order within a priority;
        #: the first entry that matches wins.
        self.entries: list[TableEntry] = []
        self.lookups = 0
        self.default_hits = 0
        self._stale = True

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
        insort(self.entries, entry, key=lambda e: -e.priority)
        self._stale = True
        return entry

    def clear(self) -> None:
        """Remove every entry (a control-plane rewrite starts here)."""
        self.entries.clear()
        self._stale = True

    def _compile(self) -> None:
        """Resolve everything a lookup needs that only the table's
        configuration decides.

        - ``_readers``: per key ``(slot reader, type check, field
          reader, path)``, the slot reader as :func:`_parse_path` gives
          it; ``(None, None, attribute, path)`` for a ``"meta."`` key;
        - ``_top``: the first entry — what a keyless table always hits;
        - ``_index``: the entries, hashed on their exact patterns. One
          ``(project, buckets)`` per set of key positions some entry
          constrains exactly: ``project`` picks those positions out of a
          key (or an entry's patterns), ``buckets`` maps the values found
          there to the entries that want them, each as ``(rank, tests,
          entry)`` in rank order. ``tests`` are the entry's remaining
          patterns — ternary, range, or an exact one that cannot be
          hashed — as ``(position, matcher)``. An all-exact table has
          no tests: its lookup is one probe per wildcard mask in use.
        """
        readers = []
        for path in self.keys:
            if path.startswith("meta."):
                readers.append((None, None, path[5:], path))
            else:
                _name, read, kind, attr, _writable = _parse_path(path)
                readers.append((read, kind, attrgetter(attr), path))
        self._readers = tuple(readers)
        self._width = len(readers)
        self._top = self.entries[0] if self.entries else None
        index: dict[tuple[int, ...], tuple[Callable, dict]] = {}
        for rank, entry in enumerate(self.entries):
            hashed, tests = [], []
            for position, (kind, pattern) in enumerate(zip(self.match_kinds, entry.patterns)):
                if pattern is None:
                    continue  # wildcard
                if kind == MatchKind.EXACT and _hashable(pattern):
                    hashed.append(position)
                else:
                    tests.append((position, _matcher(kind, pattern)))
            mask = tuple(hashed)
            if mask not in index:
                # One projection reads patterns and packet keys alike, so
                # its scalar result for a single position is consistent.
                index[mask] = (itemgetter(*mask) if mask else lambda _values: (), {})
            project, buckets = index[mask]
            buckets.setdefault(project(entry.patterns), []).append((rank, tests, entry))
        self._index = list(index.values())
        self._stale = False

    def _lookup(self, view: PacketView, meta: Metadata) -> TableEntry | None:
        """The entry this packet hits; ``None`` when none matches or the
        packet lacks a key's header (the parser would not have
        extracted it)."""
        key = [None] * self._width
        packet = view._packet
        for position, (read, kind, field_of, path) in enumerate(self._readers):
            if read is None:
                key[position] = getattr(meta, field_of, None)
                continue
            header = read(packet)
            if header is None or (kind is not None and type(header) is not kind):
                return None
            value = key[position] = field_of(header)
            if value is not None and not isinstance(value, _ALLOWED_VALUE_TYPES):
                raise PipelineError(f"field {path!r} has non-dataplane type {type(value)}")
        winner, winning_rank = None, self.max_entries
        for project, buckets in self._index:
            for rank, tests, entry in buckets.get(project(key), ()):
                if rank > winning_rank:
                    break  # this bucket's best is already beaten
                for position, matches in tests:
                    if not matches(key[position]):
                        break
                else:
                    winner, winning_rank = entry, rank
                    break
        return winner


class Pipeline:
    """An ordered sequence of tables with shared registers."""

    def __init__(self, name: str, stages: int = 12) -> None:
        self.name = name
        self.stages = stages
        self.tables: list[Table] = []
        self.registers: dict[str, RegisterArray] = {}
        self.packets_processed = 0
        #: True once a table matches on ``meta.queue_occupancy_pct``; the
        #: hosting element scans its queues for that value only then.
        self.reads_queue_pct = False

    def add_table(self, table: Table) -> Table:
        if len(self.tables) >= self.stages:
            raise PipelineError(
                f"pipeline {self.name!r}: exceeded {self.stages} stages"
            )
        self.tables.append(table)
        self.reads_queue_pct = self.reads_queue_pct or "meta.queue_occupancy_pct" in table.keys
        return table

    def add_register(self, name: str, size: int, width_bits: int = 32) -> RegisterArray:
        if name in self.registers:
            raise PipelineError(f"register {name!r} already exists")
        register = RegisterArray(name, size, width_bits)
        self.registers[name] = register
        return register

    def reset_registers(self) -> None:
        """Zero all register arrays (element restart: stateful memory
        does not survive a bitstream/image reload)."""
        for register in self.registers.values():
            register.reset()

    def process(self, packet: Packet, meta: Metadata) -> Metadata:
        """Run the packet through every table in order: each looks it up
        (a keyless one hits its first entry, if any) and runs the entry's
        action, or its default action on a miss, until one drops it."""
        self.packets_processed += 1
        view = PacketView(packet)
        for table in self.tables:
            table.lookups += 1
            if table._stale:
                table._compile()
            entry = table._lookup(view, meta) if table._readers else table._top
            if entry is None:
                table.default_hits += 1
                table.default_action.fn(view, meta, table.default_params)
            else:
                entry.hits += 1
                entry.action.fn(view, meta, entry.params)
            if meta.drop:
                break
        return meta
