"""In-band network telemetry (INT): per-hop postcards on marked packets.

The same machinery the paper uses for header rewriting — conservative,
header-only processing on programmable elements — powers INT in
production P4 deployments: a *source* element marks a packet by
appending an :class:`IntHeader`, every enrolled *transit* element pushes
an :class:`IntPostcard` (hop id, timestamp, queue depth, mode bits,
sequence number) onto the stack, and the *sink* at the receiving
endpoint strips the stack and feeds a
:class:`~repro.telemetry.registry.MetricsRegistry`.

Everything in a postcard is an integer a Tofino could write from
intrinsic metadata; the codec is byte-exact so the wire overhead
(4 bytes base + 16 per hop) is charged against link serialization like
any other header.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace

from ..netsim.headers import Header, size_fields
from ..netsim.packet import Packet
from .registry import (
    DEFAULT_LATENCY_BUCKETS_NS,
    DEFAULT_PCT_BUCKETS,
    MetricsRegistry,
    TelemetryError,
)

#: Wire size of one postcard (see :meth:`IntPostcard.encode`).
POSTCARD_BYTES = 16

#: Wire size of the INT base header (max hops, hop count, reserved).
INT_BASE_BYTES = 4

#: Default cap on the postcard stack (bounds per-packet overhead).
DEFAULT_MAX_HOPS = 8

_TS_MASK = (1 << 48) - 1


@dataclass(slots=True)
class IntPostcard:
    """One hop's telemetry record (slotted: a run that verifies INT
    against the trace retains every postcard it absorbed).

    ``timestamp_ns`` is a 48-bit wire field (enough for ~78 hours of
    nanoseconds — INT timestamps are deltas between nearby hops, so
    wrap is harmless); ``queue_depth_pct`` is the worst egress queue
    occupancy of the element, 0..100. ``flow_id`` occupies the trailing
    u16 (formerly reserved flags), so multi-flow postcards cost no
    extra wire bytes and flow 0 is bit-identical to the old encoding.
    """

    hop_id: int
    timestamp_ns: int
    queue_depth_pct: int = 0
    config_id: int = 0
    seq: int = 0
    flow_id: int = 0

    def encode(self) -> bytes:
        ts = self.timestamp_ns & _TS_MASK
        return struct.pack(
            ">HHIIBBH",
            self.hop_id & 0xFFFF,
            (ts >> 32) & 0xFFFF,
            ts & 0xFFFFFFFF,
            self.seq & 0xFFFFFFFF,
            self.queue_depth_pct & 0xFF,
            self.config_id & 0xFF,
            self.flow_id & 0xFFFF,
        )

    @classmethod
    def decode(cls, data: bytes) -> "IntPostcard":
        if len(data) != POSTCARD_BYTES:
            raise TelemetryError(f"postcard must be {POSTCARD_BYTES} bytes, got {len(data)}")
        hop_id, ts_hi, ts_lo, seq, queue, config_id, flow_id = struct.unpack(
            ">HHIIBBH", data
        )
        return cls(
            hop_id=hop_id,
            timestamp_ns=(ts_hi << 32) | ts_lo,
            queue_depth_pct=queue,
            config_id=config_id,
            seq=seq,
            flow_id=flow_id,
        )


@size_fields("hops")
@dataclass(slots=True)
class IntHeader(Header):
    """The INT metadata stack: a bounded list of per-hop postcards.

    Stacks innermost (after the MMT header), so L2/L3 forwarding never
    sees it; its bytes still count toward serialization time and MTU.
    """

    max_hops: int = DEFAULT_MAX_HOPS
    hops: list[IntPostcard] = field(default_factory=list)

    @property
    def size_bytes(self) -> int:
        return INT_BASE_BYTES + POSTCARD_BYTES * len(self.hops)

    def copy(self) -> "IntHeader":
        # The default field-wise copy would share the postcard list;
        # duplicated packets must be able to diverge.
        return IntHeader(max_hops=self.max_hops, hops=[replace(p) for p in self.hops])

    def push(self, postcard: IntPostcard) -> bool:
        """Append a postcard; False when the stack is full (hop skipped)."""
        if len(self.hops) >= self.max_hops:
            return False
        self.hops.append(postcard)
        self._touch()  # in-place growth dodges the tracked assignment
        return True

    def encode(self) -> bytes:
        if len(self.hops) > self.max_hops:
            raise TelemetryError(
                f"{len(self.hops)} postcards exceed max_hops={self.max_hops}"
            )
        out = bytearray(struct.pack(">BBH", self.max_hops, len(self.hops), 0))
        for postcard in self.hops:
            out += postcard.encode()
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> "IntHeader":
        if len(data) < INT_BASE_BYTES:
            raise TelemetryError(f"truncated INT base header: {len(data)} bytes")
        max_hops, count, _reserved = struct.unpack(">BBH", data[:INT_BASE_BYTES])
        expected = INT_BASE_BYTES + count * POSTCARD_BYTES
        if len(data) != expected:
            raise TelemetryError(
                f"INT header declares {count} hops ({expected} bytes), got {len(data)}"
            )
        hops = []
        for i in range(count):
            offset = INT_BASE_BYTES + i * POSTCARD_BYTES
            hops.append(IntPostcard.decode(data[offset : offset + POSTCARD_BYTES]))
        return cls(max_hops=max_hops, hops=hops)


class IntDomain:
    """Allocates hop ids and enrolls dataplane elements into INT.

    One domain per telemetry deployment: it hands each enrolled element
    a stable hop id, remembers the id → name mapping for the sink's
    labels, and flips the element-side attributes that activate the INT
    feature (``int_hop_id``, ``int_source``, sampling)."""

    def __init__(self, max_hops: int = DEFAULT_MAX_HOPS) -> None:
        self.max_hops = max_hops
        self.hop_names: dict[int, str] = {}
        self._next_id = 1

    def enroll(self, element, source: bool = False, sample_every: int = 1) -> int:
        """Enroll a programmable element; returns its hop id.

        ``source=True`` makes the element mark unmarked MMT data packets
        (every ``sample_every``-th one) with a fresh INT header; every
        enrolled element appends its postcard to marked packets.
        """
        if sample_every < 1:
            raise TelemetryError(f"sample_every must be >= 1, got {sample_every}")
        if getattr(element, "int_hop_id", None) is not None:
            raise TelemetryError(f"{element.name} is already enrolled")
        hop_id = self._next_id
        self._next_id += 1
        self.hop_names[hop_id] = element.name
        element.int_hop_id = hop_id
        element.int_source = source
        element.int_sample_every = sample_every
        element.int_max_hops = self.max_hops
        return hop_id

    def make_sink(self, registry: MetricsRegistry) -> "IntSink":
        return IntSink(registry, hop_names=self.hop_names)


class IntSink:
    """Strips INT stacks at the receiving endpoint and feeds the registry.

    Attached to an endpoint stack (``MmtStack.int_sink``); for every
    arriving packet carrying an :class:`IntHeader` it records:

    - ``int_postcards_total{hop}`` — postcards seen per hop;
    - ``int_queue_depth_pct{hop}`` — per-hop queue occupancy histogram
      (its max is the queue high-water mark as INT observed it);
    - ``int_segment_latency_ns{segment}`` — per-segment latency between
      consecutive enrolled hops;
    - ``int_path_latency_ns`` — first-enrolled-hop to sink latency.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        hop_names: dict[int, str] | None = None,
        now: "object" = None,
    ) -> None:
        self.registry = registry
        self.hop_names = dict(hop_names or {})
        #: Optional clock (callable returning ns) for sink-side latency.
        self._now = now
        self.packets_stripped = registry.counter(
            "int_packets_stripped", help="packets whose INT stack this sink consumed"
        )
        self.postcards_total = registry.counter("int_postcards_total")
        self._hop_counters: dict[int, object] = {}
        self._flow_counters: dict[int, object] = {}
        self._hop_queue_hists: dict[int, object] = {}
        self._segment_hists: dict[tuple[int, int], object] = {}
        self._path_hist = registry.histogram(
            "int_path_latency_ns", buckets=DEFAULT_LATENCY_BUCKETS_NS
        )

    def hop_name(self, hop_id: int) -> str:
        return self.hop_names.get(hop_id, f"hop{hop_id}")

    def absorb(self, packet: Packet) -> IntHeader | None:
        """Remove and account the packet's INT stack, if it has one."""
        header = packet.find(IntHeader)
        if header is None:
            return None
        packet.headers.remove(header)
        self.packets_stripped.inc()
        self._record(header)
        return header

    def _record(self, header: IntHeader) -> None:
        previous: IntPostcard | None = None
        for postcard in header.hops:
            self.postcards_total.inc()
            self._hop_counter(postcard.hop_id).inc()
            if postcard.flow_id:
                self._flow_counter(postcard.flow_id).inc()
            self._hop_queue_hist(postcard.hop_id).observe(postcard.queue_depth_pct)
            if previous is not None:
                delta = postcard.timestamp_ns - previous.timestamp_ns
                if delta >= 0:
                    self._segment_hist(previous.hop_id, postcard.hop_id).observe(delta)
            previous = postcard
        if header.hops:
            first = header.hops[0]
            last = header.hops[-1]
            end_ns = self._now() if self._now is not None else last.timestamp_ns
            if end_ns >= first.timestamp_ns:
                self._path_hist.observe(end_ns - first.timestamp_ns)

    # Instruments are cached per hop/segment so steady-state absorption
    # never touches the registry's dict-of-metrics.

    def _hop_counter(self, hop_id: int):
        counter = self._hop_counters.get(hop_id)
        if counter is None:
            counter = self.registry.counter(
                "int_hop_postcards_total", hop=self.hop_name(hop_id)
            )
            self._hop_counters[hop_id] = counter
        return counter

    def _flow_counter(self, flow_id: int):
        counter = self._flow_counters.get(flow_id)
        if counter is None:
            counter = self.registry.counter(
                "int_flow_postcards_total", flow=str(flow_id)
            )
            self._flow_counters[flow_id] = counter
        return counter

    def _hop_queue_hist(self, hop_id: int):
        hist = self._hop_queue_hists.get(hop_id)
        if hist is None:
            hist = self.registry.histogram(
                "int_queue_depth_pct",
                buckets=DEFAULT_PCT_BUCKETS,
                hop=self.hop_name(hop_id),
            )
            self._hop_queue_hists[hop_id] = hist
        return hist

    def _segment_hist(self, from_id: int, to_id: int):
        hist = self._segment_hists.get((from_id, to_id))
        if hist is None:
            hist = self.registry.histogram(
                "int_segment_latency_ns",
                buckets=DEFAULT_LATENCY_BUCKETS_NS,
                segment=f"{self.hop_name(from_id)}->{self.hop_name(to_id)}",
            )
            self._segment_hists[(from_id, to_id)] = hist
        return hist
