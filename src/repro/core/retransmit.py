"""Retransmission buffers: the "nearest buffer" of hop-by-hop recovery.

The paper's reliability scheme (§5.3) "generalizes the hop-by-hop
behavior of X25 [...] by providing an explicit source (IP address)
where to request the retransmission", behaving like short-term
publish-subscribe rather than TCP's always-ask-the-source. A
:class:`RetransmitBuffer` is that explicit source: a byte-bounded ring
of recently-seen sequenced packets, hosted by a DTN or a smartNIC,
serving NAKs for the experiments it caches.

Buffers register in a :class:`BufferDirectory` (the paper's "map of
in-network programmable resources", §6) that elements consult to stamp
the nearest buffer's address into headers as flows pass by.

The recovery *protocol* around the buffers lives here too, once: a
:class:`NakResponder` (hosted by whoever owns a buffer — a host stack
or a programmable element) and a :class:`NakRequester` (hosted by
whoever watches a sequence space — a receiver or a segment-repair
element). A host hands each half ``node`` (read for ``.tracer``; the
responder also reads ``.buffer`` and ``.nak_fallback_addr``, the
requester ``.sim``), its name in traces, and ``send``, how this node
puts an MMT packet on the wire: ``send(dst_ip, header, payload=,
payload_size=, meta=, src_ip=) -> bool``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..netsim import engine
from ..netsim.engine import Timer
from ..netsim.packet import Packet
from ..netsim.units import MICROSECOND, MILLISECOND
from .control import NakPayload, SeqRange, control_message
from .features import BITS, MsgType
from .header import MmtHeader
from .seqspace import unwrap, wrap


@dataclass
class RetransmitStats:
    """Counters for one buffer."""

    stored: int = 0
    evicted: int = 0
    duplicates_ignored: int = 0
    nak_requests: int = 0
    hits: int = 0
    misses: int = 0
    #: Times the buffer failed (crash/restart wiped its contents).
    failures: int = 0
    #: Stores refused while the buffer was failed.
    rejected_failed: int = 0


class RetransmitBuffer:
    """Byte-bounded store of sequenced packets, keyed by
    ``(experiment, flow, seq)``.

    An entry keeps what a resend needs, as an FPGA buffer would, in one
    flat tuple of atomic values: its charge, the MMT header's wire bytes
    (``MmtHeader.encode()``, None without a header), the payload size,
    the payload, ``meta``'s interned key tuple (None without meta) and
    then its values. Ethernet and IP are rebuilt by whoever resends, and
    later in-path rewrites of the live header cannot reach the stored
    bytes. Eviction is FIFO.

    Concurrent flows sharing one experiment (and thus one buffer) are
    isolated by the ``flow_id`` component of the key: two flows using
    the same sequence numbers can never serve each other's bytes.
    Single-flow callers omit ``flow_id`` and land on flow 0, matching
    headers without the FLOW_ID extension.
    """

    def __init__(self, capacity_bytes: int, address: str) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        #: The IP address NAKs should be sent to for this buffer.
        self.address = address
        self.bytes_used = 0
        #: True while the buffer is dead: contents lost, stores refused,
        #: every fetch a miss. Set by :meth:`fail` (fault injection /
        #: element crash), cleared by :meth:`restore`.
        self.failed = False
        self.stats = RetransmitStats()
        self.wiped = 0  # entries :meth:`clear` dropped (not a scraped counter)
        #: Causal tracer (repro.trace.Tracer) or None; records cache
        #: outcomes under the element label ``buffer:<address>``.
        self.tracer = None
        self._store: OrderedDict[tuple[int, int, int], tuple] = OrderedDict()
        #: One interned key tuple per ``meta`` shape stored.
        self._meta_keys: dict[tuple[str, ...], tuple[str, ...]] = {}
        if engine.audited is not None:
            engine.audited[self] = None

    @property
    def _trace_label(self) -> str:
        return f"buffer:{self.address}"

    def fail(self) -> None:
        """Kill the buffer: drop all cached state and refuse new stores.

        Models an FPGA buffer engine dying (EJ-FAT-style restartable
        dataplane components lose their state); the protocol around it
        must cope with every subsequent NAK going unmet.
        """
        if self.failed:
            return
        self.failed = True
        self.stats.failures += 1
        if self.tracer is not None:
            self.tracer.emit("buffer.fail", self._trace_label, entries=len(self._store))
        self.clear()

    def restore(self) -> None:
        """Bring a failed buffer back, empty (restarts never recover state)."""
        self.failed = False
        if self.tracer is not None:
            self.tracer.emit("buffer.restore", self._trace_label)

    def clear(self) -> None:
        """Drop all cached packets (restart wipe); counters survive."""
        self.wiped += len(self._store)
        self._store.clear()
        self.bytes_used = 0

    def store(
        self, experiment_id: int, seq: int, header: MmtHeader | None, payload_size: int = 0,
        payload: bytes | None = None, meta: dict | None = None, flow_id: int = 0,
        size_bytes: int | None = None,
    ) -> None:
        """Cache one message; replaces nothing on duplicate. ``size_bytes``
        is its charge: an element passes the mirrored frame's size; the
        default, header plus payload, is what a host keeps of its sends."""
        if self.failed:
            self.stats.rejected_failed += 1
            if self.tracer is not None:
                self.tracer.emit(
                    "buffer.reject", self._trace_label,
                    experiment_id, flow_id, seq, reason="failed",
                )
            return
        key = (experiment_id, flow_id, seq)
        if key in self._store:
            self.stats.duplicates_ignored += 1
            return
        encoded = None if header is None else header.encode()
        if size_bytes is None:
            size_bytes = len(encoded or b"") + payload_size
        if meta:
            keys = tuple(meta)
            keys = self._meta_keys.setdefault(keys, keys)
            self._store[key] = (size_bytes, encoded, payload_size, payload, keys, *meta.values())
        else:
            self._store[key] = (size_bytes, encoded, payload_size, payload, None)
        self.bytes_used += size_bytes
        self.stats.stored += 1
        if self.tracer is not None:
            self.tracer.emit(
                "buffer.store", self._trace_label,
                experiment_id, flow_id, seq, bytes=size_bytes,
            )
        while self.bytes_used > self.capacity_bytes and self._store:
            evicted_key, evicted = self._store.popitem(last=False)
            self.bytes_used -= evicted[0]
            self.stats.evicted += 1
            if self.tracer is not None:
                self.tracer.emit(
                    "buffer.evict", self._trace_label,
                    evicted_key[0], evicted_key[1], evicted_key[2],
                )

    def fetch(
        self, experiment_id: int, seq: int, flow_id: int = 0
    ) -> Packet | None:
        """A fresh packet of the cached header (decoded), payload and meta,
        or None when not held."""
        entry = self._store.get((experiment_id, flow_id, seq))
        if entry is None:
            self.stats.misses += 1
            if self.tracer is not None:
                self.tracer.emit(
                    "buffer.miss", self._trace_label, experiment_id, flow_id, seq
                )
            return None
        self.stats.hits += 1
        if self.tracer is not None:
            self.tracer.emit(
                "buffer.hit", self._trace_label, experiment_id, flow_id, seq
            )
        _size, encoded, payload_size, payload, keys = entry[:5]
        mmt = None if encoded is None else MmtHeader.decode(encoded)
        meta = {} if keys is None else dict(zip(keys, entry[5:]))
        return Packet(mmt=mmt, payload_size=payload_size, payload=payload, meta=meta)

    def serve_nak(
        self, experiment_id: int, nak: NakPayload, flow_id: int = 0
    ) -> tuple[list[Packet], list[SeqRange]]:
        """Resolve a NAK: (recovered packets, still-missing ranges). A range
        wider than the entries held (10 bytes of NAK name 2**32 seqs) walks
        only the entries inside it and is one ``buffer.miss`` span. Ranges
        that repeat or overlap are coalesced first, so a held packet is
        resent once per NAK however often the NAK names it."""
        self.stats.nak_requests += 1
        recovered: list[Packet] = []
        gaps: list[tuple[int, int]] = []
        ranges = nak.ranges
        for before, after in zip(ranges, ranges[1:]):  # requesters send them coalesced
            if after.start <= before.end + 1:
                ranges = NakPayload.from_ranges([(item.start, item.end) for item in ranges]).ranges
                break
        wide = [item for item in ranges if len(item) > len(self._store)]
        held = wide and sorted(s for e, f, s in self._store if e == experiment_id and f == flow_id)
        for item in ranges:
            if len(item) <= len(self._store):
                for seq in item:
                    packet = self.fetch(experiment_id, seq, flow_id)
                    if packet is None:
                        gaps.append((seq, seq))
                    else:
                        recovered.append(packet)
                continue
            hits = held[bisect_left(held, item.start):bisect_right(held, item.end)]
            recovered += [self.fetch(experiment_id, seq, flow_id) for seq in hits]
            bounds = [item.start - 1, *hits, item.end + 1]
            gaps += [(lo + 1, hi - 1) for lo, hi in zip(bounds, bounds[1:]) if hi - lo > 1]
            misses = len(item) - len(hits)
            self.stats.misses += misses
            if misses and self.tracer is not None:
                self.tracer.emit("buffer.miss", self._trace_label, experiment_id, flow_id,
                                 start=item.start, end=item.end, misses=misses)
        return recovered, NakPayload.from_ranges(gaps).ranges

    def holds(self, experiment_id: int, seq: int, flow_id: int = 0) -> bool:
        return (experiment_id, flow_id, seq) in self._store

    def __len__(self) -> int:
        return len(self._store)

    @property
    def occupancy(self) -> float:
        return self.bytes_used / self.capacity_bytes

    def bytes_by_flow(self) -> dict[tuple[int, int], int]:
        """Current residency per ``(experiment, flow)``.

        Computed on demand (telemetry scrape cadence), so the per-packet
        store/evict path stays counter-free."""
        residency: dict[tuple[int, int], int] = {}
        for (experiment_id, flow_id, _seq), entry in self._store.items():
            key = (experiment_id, flow_id)
            residency[key] = residency.get(key, 0) + entry[0]
        return residency


@dataclass
class BufferRegistration:
    """A buffer's entry in the directory."""

    address: str
    #: Position along the path, in the same coordinate the directory's
    #: users employ (hop index from the source in our topologies).
    path_position: int
    #: Which experiments this buffer caches (empty = all).
    experiments: frozenset[int] = field(default_factory=frozenset)
    #: Liveness: dead buffers are skipped by every lookup. Toggled via
    #: :meth:`BufferDirectory.mark_down` / :meth:`BufferDirectory.mark_up`.
    alive: bool = True

    def serves(self, experiment_id: int) -> bool:
        return not self.experiments or experiment_id in self.experiments


class BufferDirectory:
    """The shared map of on-path retransmission buffers (§6, challenge 1).

    The pilot "pre-supposes knowledge of in-network resources at system
    start" (§5.3); this directory is that pre-supposed knowledge:
    elements query :meth:`nearest_upstream` to refresh a header's
    ``buffer_addr`` with the closest buffer behind them.

    Registrations are deliberately *experiment*-scoped, not flow-scoped:
    concurrent flows of one experiment share the same physical buffers
    (the shared DTN of the pilot), and isolation between them lives in
    the buffer's ``(experiment, flow, seq)`` store keys — never in
    which buffer a flow is pointed at.
    """

    def __init__(self) -> None:
        self._registrations: list[BufferRegistration] = []
        #: Liveness transitions recorded, for telemetry/operator audit.
        self.marks_down = 0
        self.marks_up = 0

    def register(
        self,
        address: str,
        path_position: int,
        experiments: frozenset[int] | set[int] = frozenset(),
    ) -> BufferRegistration:
        registration = BufferRegistration(
            address=address,
            path_position=path_position,
            experiments=frozenset(experiments),
        )
        self._registrations.append(registration)
        return registration

    def mark_down(self, address: str) -> int:
        """Record buffer(s) at ``address`` as dead; returns how many."""
        marked = 0
        for registration in self._registrations:
            if registration.address == address and registration.alive:
                registration.alive = False
                marked += 1
        self.marks_down += marked
        return marked

    def mark_up(self, address: str) -> int:
        """Record buffer(s) at ``address`` as live again; returns how many."""
        marked = 0
        for registration in self._registrations:
            if registration.address == address and not registration.alive:
                registration.alive = True
                marked += 1
        self.marks_up += marked
        return marked

    def alive_count(self, experiment_id: int | None = None) -> int:
        """Live registrations (optionally only those serving an experiment)."""
        return sum(
            1
            for r in self._registrations
            if r.alive and (experiment_id is None or r.serves(experiment_id))
        )

    def nearest_upstream(
        self, experiment_id: int, position: int
    ) -> BufferRegistration | None:
        """Closest *live* buffer at or behind ``position`` serving the
        experiment. Ties on ``path_position`` break toward the earliest
        registration (deterministic: ``max`` keeps the first maximum).
        """
        candidates = [
            r
            for r in self._registrations
            if r.alive and r.path_position <= position and r.serves(experiment_id)
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda r: r.path_position)

    def failover_for(
        self, experiment_id: int, position: int
    ) -> BufferRegistration | None:
        """Best live buffer to stamp when the nearest upstream died.

        Prefers the nearest live *upstream* buffer (normal case); when
        nothing upstream survives, falls back to the closest live buffer
        *ahead* of ``position`` — still upstream of the receiver, so its
        address remains a valid NAK target. ``None`` means no live
        buffer serves the experiment at all (degrade the mode).
        """
        upstream = self.nearest_upstream(experiment_id, position)
        if upstream is not None:
            return upstream
        ahead = [
            r
            for r in self._registrations
            if r.alive and r.path_position > position and r.serves(experiment_id)
        ]
        if not ahead:
            return None
        return min(ahead, key=lambda r: r.path_position)

    def __len__(self) -> int:
        return len(self._registrations)

    def __iter__(self):
        return iter(self._registrations)


class NakForwardGuard:
    """Caps identical unmet-NAK forwards so fallback cycles die out.

    Chained buffers forward unserved NAK ranges to a fallback address;
    a mis-wired fallback cycle would otherwise circulate the same NAK
    forever. Each distinct ``(experiment, flow, ranges)`` key may be
    forwarded ``limit`` times, then it is suppressed. The flow id is
    part of the key so one flow's suppressed NAK loop never mutes an
    identical seq-range NAK from a different flow (and vice versa: a
    noisy flow cannot spend another flow's forward budget).

    The table is a bounded LRU: when it outgrows ``capacity`` the
    *stalest* key is evicted — and every :meth:`allow` call refreshes
    its key, including suppressed ones, so an actively-looping NAK can
    never be evicted by churn and restart its loop.
    """

    def __init__(self, limit: int = 3, capacity: int = 1024) -> None:
        if limit <= 0 or capacity <= 0:
            raise ValueError("limit and capacity must be positive")
        self.limit = limit
        self.capacity = capacity
        self.suppressed = 0
        self._counts: OrderedDict[tuple, int] = OrderedDict()

    def allow(self, key: tuple) -> bool:
        """True if this forward is under the cap; counts the attempt."""
        count = self._counts.get(key)
        if count is not None:
            self._counts.move_to_end(key)
            if count >= self.limit:
                self.suppressed += 1
                return False
            self._counts[key] = count + 1
            return True
        self._counts[key] = 1
        while len(self._counts) > self.capacity:
            self._counts.popitem(last=False)
        return True

    def clear(self) -> None:
        """Forget every key (a restarted node comes back cold);
        ``suppressed`` stays cumulative."""
        self._counts.clear()

    def __len__(self) -> int:
        return len(self._counts)


# ---------------------------------------------------------------------------
# The recovery protocol: one responder, one requester
# ---------------------------------------------------------------------------


class NakResponder:
    """The serving half: answer NAKs from the hosting node's buffer.

    Hits are re-originated toward the requester as ``RETX_DATA``; what
    the buffer does not hold is forwarded to the node's
    ``nak_fallback_addr`` (chained buffers; the final fallback is the
    source) with the requester kept as IP source, so the eventual
    answer goes straight to the requester and bypasses this relay.
    """

    def __init__(self, node, name: str, send: Callable[..., bool]) -> None:
        self.node = node
        self.name = name
        self._send = send
        #: Identical unmet-NAK forwards are capped so a mis-wired
        #: fallback cycle dies out instead of circulating forever.
        self.guard = NakForwardGuard()

    def serve(self, header: MmtHeader, nak: NakPayload, requester: str) -> int:
        """Serve one decoded NAK; returns how many packets were resent."""
        node = self.node
        tracer = node.tracer
        experiment_id = header.experiment_id
        flow_id = header.flow_id or 0
        recovered, unmet = node.buffer.serve_nak(experiment_id, nak, flow_id)
        resent = 0
        for cached in recovered:
            mmt = cached.mmt
            if mmt is None:
                continue
            if tracer is not None:
                tracer.emit(
                    "retx.send", self.name, experiment_id, flow_id, mmt.seq,
                    msg=mmt.msg_type.name, target=requester,
                )
            mmt.msg_type = MsgType.RETX_DATA
            # Keep the cached packet's meta (original sent_at, age epoch) so
            # latency/age accounting spans the message's whole lifetime.
            meta = cached.meta
            meta["retx"] = True
            meta.setdefault("flow", "retx")
            self._send(
                requester, mmt,
                payload_size=cached.payload_size, payload=cached.payload, meta=meta,
            )
            resent += 1
        fallback = node.nak_fallback_addr
        if unmet and fallback:
            key = (experiment_id, flow_id, tuple((r.start, r.end) for r in unmet))
            if self.guard.allow(key):
                if tracer is not None:
                    for unmet_range in unmet:
                        if len(unmet_range) > len(node.buffer):  # one span, as serve_nak's
                            tracer.emit("nak.forward", self.name, experiment_id, flow_id,
                                        target=fallback, start=unmet_range.start,
                                        end=unmet_range.end)
                            continue
                        for seq in unmet_range:
                            tracer.emit(
                                "nak.forward", self.name,
                                experiment_id, flow_id, seq, target=fallback,
                            )
                forward, payload = control_message(
                    MsgType.NAK, NakPayload(unmet), experiment_id, header.config_id, flow_id
                )
                self._send(fallback, forward, payload=payload, src_ip=requester)
        return resent


#: Backoff multiplier between repeated NAKs for the same gap.
NAK_BACKOFF = 2.0
#: A retry is not sent before ``RTT_SAFETY`` × estimated RTT passed.
RTT_SAFETY = 2.0
#: Largest leading gap treated as recoverable loss when the first
#: packet of a flow arrives with seq > 0. A bigger jump means the
#: receiver joined mid-stream (or after a 32-bit wrap): history is
#: not expected, and tracking starts at the observed position.
MAX_LEADING_GAP = 4096


@dataclass
class ReceiverConfig:
    """Tunables for an :class:`~repro.core.endpoint.MmtReceiver`; every
    :class:`NakRequester` host passes one (the last two fields are the
    receiver's own)."""

    #: How long to wait for reordering before NAK-ing a gap.
    reorder_wait_ns: int = 50 * MICROSECOND
    #: Give up on a sequence number after this many NAKs.
    max_naks: int = 8
    #: Assumed NAK→retransmission round trip before any measurement.
    initial_rtt_ns: int = 2 * MILLISECOND
    #: Re-derive the retry RTO from the path's *current* one-way delay
    #: (tracked from every fresh delivery): the RTT basis is floored at
    #: two one-way trips, so a mid-flight delay ramp on a time-varying
    #: link raises the RTO with it instead of firing spurious NAK
    #: retries off a stale estimate. Disable to reproduce the frozen
    #: pre-trajectory behavior.
    adapt_rtt_to_path: bool = True
    #: Treat sequence gaps as losses to recover. Disable for consumers
    #: that legitimately see a *stripe* of the sequence space (e.g.
    #: workers behind an EJ-FAT-style balancer) — they must not NAK the
    #: windows owned by their peers. Explicit ``request_missing`` still
    #: works.
    detect_gaps: bool = True
    #: FLOW_CONTROL: grant the sender this many fresh credits after
    #: every ``grant_credits`` deliveries (0 disables granting).
    grant_credits: int = 0
    #: Multiplicative-decrease factor echoed on a CE mark: the receiver
    #: advises ``pace_rate × ecn_beta`` via a BACKPRESSURE control.
    #: Repeat marks from the same pre-reduction window re-advise the
    #: same (already applied) rate, so the reduction is once per window.
    ecn_beta: float = 0.5


@dataclass
class FlowState:
    """Per-``(experiment_id, flow_id)`` sequence tracking.

    Legacy traffic without the FLOW_ID extension lands on flow 0, so a
    single-flow host sees exactly one state per experiment. Per-flow
    delivery/NAK counters live here (not only in the host's aggregate
    stats) so fairness and fault-isolation checks can see each flow
    separately.
    """

    base: int = 0
    received: set[int] = field(default_factory=set)
    missing: dict[int, int] = field(default_factory=dict)  # seq -> nak count
    buffer_addr: str | None = None
    highest_seen: int = -1
    given_up: set[int] = field(default_factory=set)
    #: seq → time the first NAK covering it was sent (for RTT sampling).
    nak_sent_at: dict[int, int] = field(default_factory=dict)
    #: seq → time the most recent NAK covering it was sent (retry pacing).
    last_nak_at: dict[int, int] = field(default_factory=dict)
    #: EWMA of the NAK→retransmission round trip to the buffer.
    rtt_est_ns: int | None = None
    #: EWMA of the one-way source→receiver delay of *fresh* data, fed
    #: by every delivery. Weighted toward the newest sample (1/2) so a
    #: link-delay trajectory moves the estimate within a few packets.
    path_delay_ns: int | None = None
    #: Per-flow delivery / recovery counters.
    delivered: int = 0
    bytes_delivered: int = 0
    naks_sent: int = 0
    unrecovered: int = 0
    retransmissions: int = 0


class NakRequester:
    """The asking half: find gaps in each flow's sequence space and NAK
    them until repaired or given up.

    Tracking runs in the unbounded virtual space (wire sequence numbers
    are 32 bits and wrap on long streams; serial-number arithmetic
    relative to the highest position seen). NAKs go to the buffer named
    in the flow's headers — the *nearest* buffer, not the source — unless
    the host pins ``target`` (a segment-repair element asks the previous
    recovery point upstream, whatever address it stamps itself).
    ``stats`` is the host's counter object: the requester bumps its
    ``gaps_detected``, ``naks_sent`` and ``unrecovered``.
    """

    def __init__(
        self,
        node,
        name: str,
        send: Callable[..., bool],
        config: ReceiverConfig,
        stats,
        target: str | None = None,
    ) -> None:
        self.node = node
        self.sim = node.sim
        self.name = name
        self._send = send
        self.config = config
        self.stats = stats
        self.target = target
        #: (experiment_id, flow_id) → per-flow tracking state.
        self.flows: dict[tuple[int, int], FlowState] = {}
        self._timers: dict[tuple[int, int], Timer] = {}

    def flow(self, experiment_id: int, flow_id: int = 0) -> FlowState:
        key = (experiment_id, flow_id)
        state = self.flows.get(key)
        if state is None:
            state = FlowState()
            self.flows[key] = state
        return state

    def observe(self, header: MmtHeader) -> bool:
        """Account one sequenced arrival; returns False for duplicates."""
        state = self.flow(*header.flow_key)
        if header.features._value_ & BITS.RETRANSMISSION:
            state.buffer_addr = header.buffer_addr
        seq = unwrap(header.seq, max(state.highest_seen, state.base, 0))
        if seq < state.base or seq in state.received:
            return False
        state.received.add(seq)
        state.missing.pop(seq, None)
        state.last_nak_at.pop(seq, None)
        state.given_up.discard(seq)
        if seq > state.highest_seen:
            if not self.config.detect_gaps:
                pass  # stripe consumer: peers own the in-between seqs
            elif state.highest_seen < 0 and seq - state.base > MAX_LEADING_GAP:
                state.base = seq  # joined mid-stream: start tracking here
            elif seq > state.base:
                # Everything between the last position (for a first packet
                # with seq > 0: the leading gap from ``base``) and this one.
                newly_missing = [
                    s
                    for s in range(max(state.base, state.highest_seen + 1), seq)
                    if s not in state.received
                ]
                if newly_missing:
                    self.stats.gaps_detected += 1
                    for missing_seq in newly_missing:
                        state.missing.setdefault(missing_seq, 0)
                    self._arm(header.flow_key)
            state.highest_seen = seq
        while state.base in state.received:
            state.received.discard(state.base)
            state.base += 1
        return True

    def heartbeat(self, header: MmtHeader, highest_wire_seq: int) -> None:
        """The sender reports its highest seq: expose tail loss."""
        state = self.flow(*header.flow_key)
        if header.features._value_ & BITS.RETRANSMISSION and header.buffer_addr != "0.0.0.0":
            state.buffer_addr = state.buffer_addr or header.buffer_addr
        highest = unwrap(highest_wire_seq, max(state.highest_seen, state.base, 0))
        if highest > state.highest_seen:
            for seq in range(max(state.base, state.highest_seen + 1), highest + 1):
                if seq not in state.received and seq not in state.missing:
                    state.missing[seq] = 0
            state.highest_seen = highest
            if state.missing:
                self.stats.gaps_detected += 1
                self._arm(header.flow_key)

    def request(
        self,
        experiment_id: int,
        seqs: Iterable[int],
        flow_id: int = 0,
        buffer_addr: str | None = None,
    ) -> int:
        """Mark ``seqs`` missing unless delivered or given up, and NAK at
        once. ``buffer_addr`` seeds the NAK target of a flow that has no
        data-derived one yet. Returns how many were newly marked."""
        state = self.flow(experiment_id, flow_id)
        if buffer_addr is not None and state.buffer_addr is None:
            state.buffer_addr = buffer_addr
        newly = 0
        for seq in seqs:
            if seq < state.base or seq in state.received or seq in state.given_up:
                continue
            if seq not in state.missing:
                state.missing[seq] = 0
                newly += 1
            if seq > state.highest_seen:
                state.highest_seen = seq
        if state.missing:
            self._fire((experiment_id, flow_id))
        return newly

    def sample_rtt(self, header: MmtHeader) -> None:
        """EWMA the NAK→retransmission round trip to the serving buffer."""
        state = self.flow(*header.flow_key)
        seq = unwrap(header.seq, max(state.highest_seen, state.base, 0))
        sent_at = state.nak_sent_at.pop(seq, None)
        if sent_at is None:
            return
        sample = self.sim.now - sent_at
        if state.rtt_est_ns is None:
            state.rtt_est_ns = sample
        else:
            state.rtt_est_ns = (7 * state.rtt_est_ns + sample) // 8

    def _retry_interval_ns(self, state: FlowState) -> int:
        rtt = state.rtt_est_ns if state.rtt_est_ns is not None else self.config.initial_rtt_ns
        if self.config.adapt_rtt_to_path and state.path_delay_ns is not None:
            # The NAK round trip can never beat two one-way trips of the
            # path as it is *now*: when a trajectory ramps the delay
            # mid-flight, this floor re-derives the RTO from the current
            # delay instead of retrying off the frozen initial estimate.
            rtt = max(rtt, 2 * state.path_delay_ns)
        return max(self.config.reorder_wait_ns, int(rtt * RTT_SAFETY))

    def _timer(self, flow_key: tuple[int, int]) -> Timer:
        """One timer per ``(experiment, flow)`` so flows back off
        independently."""
        timer = self._timers.get(flow_key)
        if timer is None:
            timer = Timer(self.sim, lambda: self._fire(flow_key))
            self._timers[flow_key] = timer
        return timer

    def _arm(self, flow_key: tuple[int, int]) -> None:
        """Make sure a NAK fires within ``reorder_wait`` of now.

        The timer may already be armed far in the future (retry backoff
        for seqs NAK-ed earlier); a *freshly detected* gap must not wait
        behind it, so the timer is pulled in when needed.
        """
        timer = self._timer(flow_key)
        deadline = self.sim.now + self.config.reorder_wait_ns
        if not timer.running or (timer.expires_at or 0) > deadline:
            timer.start(self.config.reorder_wait_ns)

    def _fire(self, flow_key: tuple[int, int]) -> None:
        experiment_id, flow_id = flow_key
        state = self.flow(experiment_id, flow_id)
        if not state.missing:
            return
        tracer = self.node.tracer
        target = self.target or state.buffer_addr
        why = {"reason": "max_naks", "target": target}  # the give-up trace attrs
        if target is None or target == "0.0.0.0":
            # Nowhere to NAK: every loss counts as unrecoverable at once.
            target, why = None, {"reason": "no_buffer"}
        now = self.sim.now
        retry = self._retry_interval_ns(state)
        ripe: list[int] = []
        next_due: int | None = None
        for seq in sorted(state.missing):
            count = state.missing[seq]
            if target is None or count >= self.config.max_naks:
                state.given_up.add(seq)
                self.stats.unrecovered += 1
                state.unrecovered += 1
                del state.missing[seq]
                state.last_nak_at.pop(seq, None)
                if tracer is not None:
                    tracer.emit(
                        "nak.giveup", self.name,
                        experiment_id, flow_id, wrap(seq), **why,
                    )
                continue
            if count == 0:
                due_at = now  # freshly detected gap: NAK immediately
            else:
                backoff = NAK_BACKOFF ** (count - 1)
                due_at = state.last_nak_at.get(seq, now) + int(retry * backoff)
            if due_at <= now:
                ripe.append(seq)
                state.missing[seq] = count + 1
                state.last_nak_at[seq] = now
                state.nak_sent_at.setdefault(seq, now)
                if tracer is not None:
                    tracer.emit(
                        "nak.send", self.name,
                        experiment_id, flow_id, wrap(seq),
                        target=target, attempt=count + 1,
                    )
                backoff = NAK_BACKOFF ** count  # next retry
                due_at = now + int(retry * backoff)
            next_due = due_at if next_due is None else min(next_due, due_at)
        if ripe:
            # NAKs carry 32-bit wire values; ranges split cleanly at a wrap
            # boundary because coalescing runs on masked numbers.
            nak = NakPayload.from_sequence_numbers([wrap(s) for s in ripe])
            header, payload = control_message(MsgType.NAK, nak, experiment_id, 0, flow_id)
            self._send(target, header, payload=payload)
            self.stats.naks_sent += 1
            state.naks_sent += 1
        if state.missing and next_due is not None:
            self._timer(flow_key).start(max(next_due - now, 1))
