"""MMT endpoints: sender, receiver, and the per-host protocol stack.

An :class:`MmtStack` registers with a host for MMT-over-IP and
MMT-over-Ethernet (Req 1) and demultiplexes by message type and
experiment id. Applications use:

- :class:`MmtSender` — datagram sends (one message per packet; DAQ
  messages have well-defined boundaries and are MTU-fitted, §2.1),
  optional pacing, optional local retransmission buffering, heartbeats
  so receivers can detect tail loss, and backpressure response.
- :class:`MmtReceiver` — immediate (non-blocking, unordered) delivery
  of messages to the application — the message abstraction of Req 7;
  gap detection over sequence numbers with NAKs sent to the *nearest
  buffer* named in the header (not the source); deadline checking with
  miss notifications; age/aged accounting.

Design note: messages are delivered the moment they arrive. Unlike a
TCP bytestream there is no head-of-line blocking — a recovered packet
fills in later, and the application sees exactly which timestamps are
still outstanding.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

from ..netsim.engine import Timer
from ..netsim.headers import ECN_CE, ECN_ECT0, EtherType, IpProto
from ..netsim.host import Host
from ..netsim.packet import Packet
from ..netsim.units import MBPS, MILLISECOND, SECOND
from .control import (
    BackpressurePayload,
    DeadlineMissPayload,
    HeartbeatPayload,
    ModeAnnouncePayload,
    NakPayload,
    WindowUpdatePayload,
    control_message,
    decode_control,
)
from .features import BITS, MSG_TYPE_NAMES, Feature, MsgType
from .header import MmtHeader
from .modes import Mode, ModeRegistry, pilot_registry
from .retransmit import (
    BufferDirectory,
    NakRequester,
    NakResponder,
    ReceiverConfig,
    RetransmitBuffer,
)
from .seqspace import wrap


class EndpointError(RuntimeError):
    """Raised for endpoint misuse."""


class Rows:
    """A log of int rows kept as one ``array('q')`` column per field.

    Delivery logs keep a row per message for the whole run; as columns a
    row of two fields weighs 16 bytes, not a tuple, its list slot and the
    ints it keeps alive (~130). Writers append to each column by name
    (``log.time.append(now)``); readers see the list of tuples it
    replaces: iteration, ``len`` and indexing yield ``(field, ...)``.
    """

    def __init__(self, *fields: str) -> None:
        self._columns = tuple(array("q") for _ in fields)
        for name, column in zip(fields, self._columns):
            setattr(self, name, column)

    def __len__(self) -> int:
        return len(self._columns[0])

    def __iter__(self):
        return zip(*self._columns)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(zip(*[column[index] for column in self._columns]))
        return tuple([column[index] for column in self._columns])


# ---------------------------------------------------------------------------
# Stack
# ---------------------------------------------------------------------------


class MmtStack:
    """Per-host MMT protocol instance: demux, buffers, notifications."""

    def __init__(self, host: Host, registry: ModeRegistry | None = None) -> None:
        self.host = host
        self.sim = host.sim
        self.registry = registry or pilot_registry()
        self.receivers: dict[int, MmtReceiver] = {}
        self.senders: list[MmtSender] = []
        self.buffer: RetransmitBuffer | None = None
        #: NAKs this buffer could not serve are forwarded here (chained
        #: buffers; the final fallback is the source).
        self.nak_fallback_addr: str | None = None
        #: Serves NAKs out of :attr:`buffer` (the responder half of the
        #: recovery protocol, :mod:`repro.core.retransmit`).
        self.responder = NakResponder(self, host.name, self._originate)
        self.deadline_misses: list[DeadlineMissPayload] = []
        self.on_deadline_miss: Callable[[DeadlineMissPayload], None] | None = None
        #: experiment_id → mode announcements received from on-path
        #: elements (§4.2's end-to-end-from-hop-by-hop reasoning input).
        self.mode_announcements: dict[int, list[ModeAnnouncePayload]] = {}
        self.on_mode_announce: Callable[[int, ModeAnnouncePayload], None] | None = None
        self.rx_unknown_experiment = 0
        #: Control messages dropped because their payload did not parse.
        self.rx_malformed = 0
        #: In-band telemetry sink (repro.telemetry.inband.IntSink);
        #: when set, INT stacks are stripped off every arriving packet
        #: and fed to the sink's registry before demux.
        self.int_sink = None
        #: Causal tracer (repro.trace.Tracer) or None; senders and
        #: receivers of this stack reach it via ``self.stack.tracer``.
        self.tracer = None
        host.register_l3_protocol(IpProto.MMT, self._receive)
        host.register_l2_protocol(EtherType.MMT, self._receive)

    # -- construction helpers ------------------------------------------------

    def attach_buffer(self, capacity_bytes: int) -> RetransmitBuffer:
        """Host a retransmission buffer at this node (DTN or smartNIC)."""
        if self.buffer is not None:
            raise EndpointError(f"{self.host.name} already hosts a buffer")
        self.buffer = RetransmitBuffer(capacity_bytes, address=self.host.ip)
        return self.buffer

    def create_sender(self, **kwargs) -> "MmtSender":
        sender = MmtSender(stack=self, **kwargs)
        self.senders.append(sender)
        return sender

    def bind_receiver(self, experiment: int, **kwargs) -> "MmtReceiver":
        """Bind a receiver for an experiment number (all slices)."""
        if experiment in self.receivers:
            raise EndpointError(f"experiment {experiment} already bound")
        receiver = MmtReceiver(stack=self, experiment=experiment, **kwargs)
        self.receivers[experiment] = receiver
        return receiver

    # -- wire I/O ---------------------------------------------------------------

    def send_control(
        self,
        dst_ip: str,
        header: MmtHeader,
        payload: bytes | None = None,
        src_ip: str | None = None,
    ) -> bool:
        """Send a control message (NAK, miss report, backpressure).

        ``src_ip`` preserves an original requester when relaying (so
        the eventual answer bypasses this relay)."""
        return self._originate(
            dst_ip, header, payload=payload, src_ip=src_ip,
            meta={"mmt_control": MSG_TYPE_NAMES[header.msg_type]},
        )

    def _originate(
        self,
        dst_ip: str,
        header: MmtHeader,
        payload_size: int = 0,
        payload: bytes | None = None,
        meta: dict | None = None,
        src_ip: str | None = None,
    ) -> bool:
        """Put one MMT packet this host originates on the wire (an
        element's ``_send_mmt`` has the same signature)."""
        return self.host.send_ip(
            dst_ip, IpProto.MMT, mmt=header,
            payload_size=payload_size, payload=payload, meta=meta, src_ip=src_ip,
        )

    def _receive(self, packet: Packet) -> None:
        if self.int_sink is not None:
            self.int_sink.absorb(packet)
        header = packet.mmt
        if header is None:
            return
        if header.msg_type in (MsgType.DATA, MsgType.RETX_DATA):
            receiver = self.receivers.get(header.experiment)
            if receiver is None:
                self.rx_unknown_experiment += 1
                return
            receiver.handle(packet, header)
            return
        entry = _CONTROL.get(header.msg_type)
        if entry is None:
            return
        codec, handler = entry
        message = decode_control(codec, packet)
        if message is None:
            self.rx_malformed += 1
            return
        handler(self, packet, header, message)

    # -- control handling (dispatched through _CONTROL, already decoded) -----

    def _on_nak(self, packet: Packet, header: MmtHeader, nak: NakPayload) -> None:
        ip = packet.ip
        if self.buffer is not None and ip is not None:
            self.responder.serve(header, nak, ip.src)

    def _on_heartbeat(
        self, _packet: Packet, header: MmtHeader, heartbeat: HeartbeatPayload
    ) -> None:
        receiver = self.receivers.get(header.experiment)
        if receiver is None:
            self.rx_unknown_experiment += 1
            return
        receiver.handle_heartbeat(header, heartbeat)

    def _on_deadline_miss(
        self, _packet: Packet, _header: MmtHeader, miss: DeadlineMissPayload
    ) -> None:
        self.deadline_misses.append(miss)
        if self.on_deadline_miss is not None:
            self.on_deadline_miss(miss)

    def _on_backpressure(
        self, _packet: Packet, header: MmtHeader, signal: BackpressurePayload
    ) -> None:
        for sender in self.senders:
            if sender.experiment_id == header.experiment_id:
                sender.apply_backpressure(signal)

    def _on_window(
        self, _packet: Packet, header: MmtHeader, update: WindowUpdatePayload
    ) -> None:
        for sender in self.senders:
            if sender.experiment_id == header.experiment_id:
                sender.stats.window_updates_received += 1
                sender.add_credits(update.credits)

    def _on_mode_announce(
        self, _packet: Packet, header: MmtHeader, announce: ModeAnnouncePayload
    ) -> None:
        history = self.mode_announcements.setdefault(header.experiment_id, [])
        history.append(announce)
        if self.on_mode_announce is not None:
            self.on_mode_announce(header.experiment_id, announce)


#: Control message type → (payload codec, stack handler). ``_receive``
#: decodes once through :func:`decode_control` and hands the handler a
#: parsed message; a type not listed here is ignored.
_CONTROL = {
    MsgType.NAK: (NakPayload, MmtStack._on_nak),
    MsgType.HEARTBEAT: (HeartbeatPayload, MmtStack._on_heartbeat),
    MsgType.DEADLINE_MISS: (DeadlineMissPayload, MmtStack._on_deadline_miss),
    MsgType.BACKPRESSURE: (BackpressurePayload, MmtStack._on_backpressure),
    MsgType.WINDOW: (WindowUpdatePayload, MmtStack._on_window),
    MsgType.MODE_ANNOUNCE: (ModeAnnouncePayload, MmtStack._on_mode_announce),
}


# ---------------------------------------------------------------------------
# Sender
# ---------------------------------------------------------------------------


#: Heartbeats sent after finish() so tail loss is always detectable.
CLOSING_HEARTBEATS = 3
#: Stop heartbeating after this many beats with no new data (the
#: stream is idle; beating resumes on the next send). Keeps idle
#: senders from holding the event loop open forever.
IDLE_HEARTBEAT_LIMIT = 5
#: Multiplicative recovery applied each heartbeat after backpressure.
PACE_RECOVERY_FACTOR = 1.05
#: After a degradation, how long to wait before the first re-check
#: for a live buffer (doubles each failed attempt — the sender-side
#: retransmit-timeout analogue of the receiver's NAK backoff).
BUFFER_RECHECK_NS = 2 * MILLISECOND
#: Multiplier applied to the re-check interval per failed attempt.
BUFFER_RECHECK_BACKOFF = 2.0
#: Bounded give-up mirroring the receiver's ``max_naks``: stop
#: probing for a live buffer after this many failed re-checks and
#: stay degraded permanently.
MAX_BUFFER_RECHECKS = 8


@dataclass
class SenderConfig:
    """Tunables for an :class:`MmtSender` (the ones some caller sets; the
    rest are the module constants above)."""

    #: Interval between heartbeats while the stream is active; 0 disables.
    heartbeat_interval_ns: int = MILLISECOND
    #: Floor for backpressure-driven rate reduction.
    min_pace_rate_mbps: int = 100
    #: Minimum spacing between effective backpressure reductions. A
    #: standing queue above an ECN mark point echoes continuously; the
    #: hold-off makes the reaction once-per-window (AIMD) instead of an
    #: exponential decay to the floor. 0 = legacy immediate reaction.
    backpressure_holdoff_ns: int = 0
    #: Starting credit balance for FLOW_CONTROL modes (messages the
    #: sender may emit before the first receiver grant arrives).
    initial_credits: int = 64


@dataclass
class SenderStats:
    """Per-sender counters."""
    messages_sent: int = 0
    bytes_sent: int = 0
    heartbeats_sent: int = 0
    backpressure_signals: int = 0
    send_failures: int = 0
    #: High-water mark of messages held back awaiting credits.
    flow_blocked: int = 0
    window_updates_received: int = 0
    #: Mode degradations (no live buffer → identification-only) and the
    #: recoveries back once a buffer reappeared.
    mode_degradations: int = 0
    mode_upgrades: int = 0
    #: Buffer liveness re-checks that found nothing (backoff retries).
    buffer_rechecks_failed: int = 0
    #: 1 once the sender exhausted its re-checks and stays degraded.
    degraded_final: int = 0
    #: Mid-flow primary-mode rewrites. Senders keep their primary mode
    #: (segments shape-shift in the network), so this stays 0; it is kept
    #: because every sender snapshot exports it as ``mmt_tx_mode_rewrites``.
    mode_rewrites: int = 0


class MmtSender:
    """Message-oriented sender; one message = one MMT packet."""

    def __init__(
        self,
        stack: MmtStack,
        experiment_id: int,
        mode: Mode | str,
        dst_ip: str | None = None,
        dst_mac: str | None = None,
        l2_port: str | None = None,
        pace_rate_mbps: int | None = None,
        deadline_offset_ns: int | None = None,
        notify_addr: str | None = None,
        age_budget_ns: int | None = None,
        buffer_local: bool = False,
        config: SenderConfig | None = None,
        flow: str | None = None,
        directory: BufferDirectory | None = None,
        path_position: int = 0,
        degraded_mode: Mode | str = "identify",
        flow_id: int | None = None,
    ) -> None:
        self.stack = stack
        self.sim = stack.sim
        self.experiment_id = experiment_id
        mode = stack.registry.by_name(mode) if isinstance(mode, str) else mode
        if dst_ip is None and (dst_mac is None or l2_port is None):
            raise EndpointError("need dst_ip, or dst_mac with l2_port")
        self.dst_ip = dst_ip
        self.dst_mac = dst_mac
        self.l2_port = l2_port
        self.pace_rate_mbps = pace_rate_mbps
        self.deadline_offset_ns = deadline_offset_ns
        self.notify_addr = notify_addr
        self.age_budget_ns = age_budget_ns
        self.buffer_local = buffer_local
        self.config = config or SenderConfig()
        #: Wire flow identifier (FLOW_ID extension); None = legacy
        #: single-flow traffic whose headers stay byte-identical.
        self.flow_id = flow_id
        self._set_mode(mode)
        if flow is None:
            flow = (
                f"mmt-{experiment_id}-f{flow_id}"
                if flow_id is not None
                else f"mmt-{experiment_id}"
            )
        self.flow = flow
        self.stats = SenderStats()
        self._next_seq = 0
        self._pending: deque[tuple[int, bytes | None, dict]] = deque()
        self._pace_timer = Timer(self.sim, self._drain_paced)
        self._heartbeat_timer = Timer(self.sim, self._heartbeat)
        #: Buffer directory consulted before each reliable send; when no
        #: live buffer serves the experiment the sender degrades to
        #: ``degraded_mode`` (the paper's multi-modality used
        #: defensively) instead of advertising a dead NAK target.
        self.directory = directory
        self.path_position = path_position
        self._primary_mode = self.mode
        self._degraded_mode = (
            stack.registry.by_name(degraded_mode)
            if isinstance(degraded_mode, str)
            else degraded_mode
        ) if directory is not None else None
        self._degraded = False
        self._rechecks_done = 0
        self._recheck_timer = Timer(self.sim, self._recheck_buffer)
        self._finished = False
        self._closing_left = CLOSING_HEARTBEATS
        self._beats_since_send = 0
        #: Time of the last *effective* backpressure reduction.
        self._last_backpressure_at: int | None = None
        #: Credit balance for FLOW_CONTROL modes (None = not used).
        self._credits: int | None = (
            self.config.initial_credits if self.mode.has(Feature.FLOW_CONTROL) else None
        )
        self._check_requirements(self.mode)

    def _check_requirements(self, mode: Mode) -> None:
        """What ``mode``'s features need from this sender's settings."""
        if mode.has(Feature.PACING) and self.pace_rate_mbps is None:
            raise EndpointError("PACING mode requires pace_rate_mbps")
        if mode.has(Feature.TIMELINESS) and (
            self.deadline_offset_ns is None or self.notify_addr is None
        ):
            raise EndpointError("TIMELINESS mode requires deadline_offset_ns+notify_addr")
        if mode.has(Feature.AGE_TRACKING) and self.age_budget_ns is None:
            raise EndpointError("AGE_TRACKING mode requires age_budget_ns")
        if self.buffer_local and self.stack.buffer is None:
            raise EndpointError("buffer_local requires stack.attach_buffer() first")

    def _set_mode(self, mode: Mode) -> None:
        """Make ``mode`` current, and settle here — once per mode, not
        per message — what every header sent in it starts from."""
        self.mode = mode
        self._mode_bits = int(mode.features)
        #: The wire feature word: the mode's, plus FLOW_ID for a tagged flow.
        self._features = (
            mode.features | Feature.FLOW_ID if self.flow_id is not None else mode.features
        )

    # -- public API ---------------------------------------------------------------

    def send(
        self,
        payload_size: int,
        payload: bytes | None = None,
        meta: dict | None = None,
    ) -> None:
        """Queue one message. Paced modes space transmissions; others
        hand the packet straight to the NIC."""
        if self._finished:
            raise EndpointError("sender is finished")
        if (
            self.config.heartbeat_interval_ns
            and self._mode_bits & BITS.SEQUENCED
            and not self._heartbeat_timer.running
        ):
            self._heartbeat_timer.start(self.config.heartbeat_interval_ns)
        self._beats_since_send = 0
        entry = (payload_size, payload, dict(meta or {}))
        if self._mode_bits & BITS.PACING or self._credits is not None:
            self._pending.append(entry)
            self._pump()
        else:
            self._transmit(*entry)

    def _pump(self) -> None:
        """Push queued messages through the pacing/credit gates."""
        if self._mode_bits & BITS.PACING:
            if not self._pace_timer.running:
                self._drain_paced()
            return
        while self._pending and self._credits > 0:
            self._credits -= 1
            payload_size, payload, meta = self._pending.popleft()
            self._transmit(payload_size, payload, meta)
        if self._pending:
            self.stats.flow_blocked = max(
                self.stats.flow_blocked, len(self._pending)
            )

    def add_credits(self, credits: int) -> None:
        """Receiver grant arrived (WINDOW update): release sends."""
        if self._credits is None:
            return
        self._credits += credits
        self._pump()

    @property
    def credits(self) -> int | None:
        """Remaining flow-control credits (None when not flow-controlled)."""
        return self._credits

    def finish(self) -> None:
        """Declare the stream complete; closing heartbeats still flush."""
        self._finished = True

    @property
    def next_seq(self) -> int:
        """The sequence number the next message will carry."""
        return self._next_seq

    def apply_backpressure(self, signal: BackpressurePayload) -> None:
        """React to a backpressure signal by reducing the pacing rate."""
        self.stats.backpressure_signals += 1
        if not self.mode.has(Feature.BACKPRESSURE):
            return
        if self.pace_rate_mbps is None:
            return
        holdoff = self.config.backpressure_holdoff_ns
        if (
            holdoff
            and self._last_backpressure_at is not None
            and self.sim.now - self._last_backpressure_at < holdoff
        ):
            return  # already reduced for this window of in-flight data
        advised = max(signal.advised_rate_mbps, self.config.min_pace_rate_mbps)
        if advised < self.pace_rate_mbps:
            self.pace_rate_mbps = advised
            self._last_backpressure_at = self.sim.now

    # -- internals -------------------------------------------------------------------

    def _build_header(self, msg_type: MsgType = MsgType.DATA) -> MmtHeader:
        mode, bits = self.mode, self._mode_bits
        header = MmtHeader(
            config_id=mode.config_id,
            features=self._features,
            msg_type=msg_type,
            ack_scheme=mode.ack_scheme,
            experiment_id=self.experiment_id,
            flow_id=self.flow_id,
        )
        if bits & BITS.SEQUENCED:
            header.seq = wrap(self._next_seq)  # 32-bit wire value
        if bits & BITS.RETRANSMISSION:
            addr = self.stack.host.ip if self.buffer_local else "0.0.0.0"
            if self.directory is not None:
                live = self.directory.failover_for(
                    self.experiment_id, self.path_position
                )
                if live is not None:
                    addr = live.address
            header.buffer_addr = addr
        if bits & BITS.TIMELINESS:
            header.deadline_ns = self.sim.now + self.deadline_offset_ns
            header.notify_addr = self.notify_addr
        if bits & BITS.AGE_TRACKING:
            header.age_ns = 0
            header.age_budget_ns = self.age_budget_ns
        if bits & BITS.PACING:
            header.pace_rate_mbps = self.pace_rate_mbps
        if bits & BITS.BACKPRESSURE:
            header.source_addr = self.stack.host.ip
        if bits & BITS.DUPLICATION:
            header.dup_group = self.experiment_id & 0xFFFF
            header.dup_copies = 1
        return header

    def _transmit(self, payload_size: int, payload: bytes | None, meta: dict) -> None:
        if (
            self.directory is not None
            and not self._degraded
            and self._mode_bits & BITS.RETRANSMISSION
            and self.directory.failover_for(self.experiment_id, self.path_position)
            is None
        ):
            self._degrade()
        header = self._build_header()
        meta = dict(meta)
        meta.setdefault("flow", self.flow)
        # Stamp origination time here (not only at the host) so locally
        # cached copies carry it into any later retransmission.
        meta.setdefault("sent_at", self.sim.now)
        if self._mode_bits & BITS.AGE_TRACKING:
            meta["mmt_age_epoch"] = self.sim.now
        tracer = self.stack.tracer
        if tracer is not None:
            # Identity-less for unsequenced (identify-mode) streams: the
            # seq is only assigned once an in-network transition fires.
            tracer.emit(
                "packet.send", self.stack.host.name,
                self.experiment_id, self.flow_id or 0, header.seq,
                msg=MSG_TYPE_NAMES[header.msg_type], config=header.config_id,
            )
        sent = self._send_packet(header, payload_size, payload, meta)
        if not sent:
            self.stats.send_failures += 1
        if self._mode_bits & BITS.SEQUENCED:
            if self.buffer_local and self.stack.buffer is not None:
                # Cache what we just sent so NAKs can be served locally.
                self.stack.buffer.store(
                    self.experiment_id, header.seq, header, payload_size, payload, meta,
                    self.flow_id or 0,
                )
            self._next_seq += 1
        self.stats.messages_sent += 1
        self.stats.bytes_sent += payload_size

    def _send_packet(
        self,
        header: MmtHeader,
        payload_size: int,
        payload: bytes | None,
        meta: dict,
    ) -> bool:
        if self.dst_ip is not None:
            return self.stack.host.send_ip(
                self.dst_ip,
                IpProto.MMT,
                mmt=header,
                payload_size=payload_size,
                payload=payload,
                meta=meta,
                # CONGESTION_CONTROL modes are ECN-capable: AQMs mark
                # their packets CE instead of dropping them.
                ecn=ECN_ECT0 if self._mode_bits & BITS.CONGESTION_CONTROL else 0,
            )
        return self.stack.host.send_l2(
            self.l2_port,
            self.dst_mac,
            EtherType.MMT,
            header,
            payload_size=payload_size,
            payload=payload,
            meta=meta,
        )

    def _drain_paced(self) -> None:
        if not self._pending:
            return
        if self._credits is not None:
            if self._credits <= 0:
                return  # a credit grant will pump again
            self._credits -= 1
        payload_size, payload, meta = self._pending.popleft()
        self._transmit(payload_size, payload, meta)
        # Keep the timer armed even when the queue just drained: it
        # gates the *next* send to the pacing gap.
        rate_bps = max(self.pace_rate_mbps, 1) * MBPS
        gap_ns = (payload_size * 8 * SECOND) // rate_bps
        self._pace_timer.start(max(gap_ns, 1))

    def _heartbeat(self) -> None:
        if self._finished and self._closing_left <= 0:
            return
        if self._finished:
            self._closing_left -= 1
        elif self._beats_since_send >= IDLE_HEARTBEAT_LIMIT:
            return  # idle stream; beating resumes on the next send
        self._beats_since_send += 1
        if self.mode.has(Feature.SEQUENCED) and self._next_seq > 0:
            payload = HeartbeatPayload(
                highest_seq=wrap(self._next_seq - 1),
                packets_sent=self.stats.messages_sent,
            ).encode()
            header = self._build_header(MsgType.HEARTBEAT)
            # Heartbeats reuse the next seq slot without consuming it.
            self._send_packet(
                header, len(payload), payload, {"flow": f"{self.flow}:hb"}
            )
            self.stats.heartbeats_sent += 1
        if self.config.heartbeat_interval_ns:
            self._heartbeat_timer.start(self.config.heartbeat_interval_ns)

    # -- graceful mode degradation ------------------------------------------

    @property
    def degraded(self) -> bool:
        """True while the sender runs in its degraded (fallback) mode."""
        return self._degraded

    def _degrade(self) -> None:
        """No live buffer serves the experiment: fall back to the
        degraded mode (identification-only by default) and announce it.

        The paper's multi-modality used defensively: rather than keep
        advertising a dead NAK target (an unbounded NAK storm at the
        receiver), the stream sheds its reliability features until a
        buffer comes back. Re-checks run on an exponential backoff with
        a bounded give-up mirroring the receiver's ``max_naks``.
        """
        self.stats.mode_degradations += 1
        self._degraded = True
        self._rechecks_done = 0
        self._enter_mode(self._degraded_mode, "mode.degrade")
        self._recheck_timer.start(BUFFER_RECHECK_NS)

    def _upgrade(self) -> None:
        """A live buffer reappeared: restore the primary mode."""
        self._degraded = False
        self._rechecks_done = 0
        self.stats.mode_upgrades += 1
        self._enter_mode(self._primary_mode, "mode.upgrade")

    def _trace_mode(self, kind: str, **attrs) -> None:
        if self.stack.tracer is not None:
            self.stack.tracer.emit(
                kind, self.stack.host.name,
                self.experiment_id, self.flow_id or 0, **attrs,
            )

    def _enter_mode(self, mode: Mode, kind: str, announce: bool = True, **attrs) -> None:
        """Start transmitting in ``mode``: trace the switch, stop beating
        when the new mode has no sequence space to report, and tell the
        destination."""
        self._set_mode(mode)
        self._trace_mode(kind, **attrs, to_config=mode.config_id)
        if not mode.has(Feature.SEQUENCED):
            self._heartbeat_timer.stop()
        if announce:
            self._announce_mode()

    def _recheck_buffer(self) -> None:
        if not self._degraded or self._finished:
            return
        if (
            self.directory.failover_for(self.experiment_id, self.path_position)
            is not None
        ):
            self._upgrade()
            return
        self.stats.buffer_rechecks_failed += 1
        self._rechecks_done += 1
        if self._rechecks_done >= MAX_BUFFER_RECHECKS:
            self.stats.degraded_final = 1
            return  # bounded give-up: stay degraded, leak no timer
        delay = int(
            BUFFER_RECHECK_NS
            * BUFFER_RECHECK_BACKOFF ** self._rechecks_done
        )
        self._recheck_timer.start(max(delay, 1))

    def _announce_mode(self) -> None:
        """Tell the destination which mode the stream now runs in."""
        if self.dst_ip is None:
            return  # raw-L2 senders have no control channel
        announce = ModeAnnouncePayload(
            config_id=self.mode.config_id, element=self.stack.host.ip, at_ns=self.sim.now
        )
        self.stack.send_control(self.dst_ip, *control_message(
            MsgType.MODE_ANNOUNCE, announce, self.experiment_id, self.mode.config_id
        ))


# ---------------------------------------------------------------------------
# Receiver
# ---------------------------------------------------------------------------


@dataclass
class ReceiverStats:
    """Per-receiver counters."""
    messages_delivered: int = 0
    bytes_delivered: int = 0
    duplicates: int = 0
    retransmissions_received: int = 0
    naks_sent: int = 0
    gaps_detected: int = 0
    unrecovered: int = 0
    deadline_misses: int = 0
    deadline_ok: int = 0
    aged_packets: int = 0
    heartbeats_received: int = 0
    windows_granted: int = 0
    #: CE-marked packets seen (ECN-capable MMT modes).
    ce_marks_seen: int = 0
    #: Backpressure controls echoed back in response to CE marks.
    ce_echoes_sent: int = 0


class MmtReceiver:
    """Delivers messages to the application and drives loss recovery."""

    def __init__(
        self,
        stack: MmtStack,
        experiment: int,
        on_message: Callable[[Packet, MmtHeader], None] | None = None,
        config: ReceiverConfig | None = None,
    ) -> None:
        self.stack = stack
        self.sim = stack.sim
        self.experiment = experiment
        self.on_message = on_message
        self.config = config or ReceiverConfig()
        self.stats = ReceiverStats()
        #: Sequencing and NAK recovery (the requester half of the recovery
        #: protocol, :mod:`repro.core.retransmit`); per-flow state and
        #: counters live in ``requester.flows``.
        self.requester = NakRequester(
            stack, stack.host.name, stack.send_control, self.config, self.stats
        )
        self._since_grant = 0
        #: (sim time, latency) samples for every delivered message.
        self.delivery_log = Rows("time", "latency")

    # -- ingress ---------------------------------------------------------------

    def handle(self, packet: Packet, header: MmtHeader) -> None:
        tracer = self.stack.tracer
        if header.msg_type == MsgType.RETX_DATA:
            self.stats.retransmissions_received += 1
            self.requester.flow(*header.flow_key).retransmissions += 1
            if tracer is not None:
                tracer.emit(
                    "retx.recv", self.stack.host.name,
                    header.experiment_id, header.flow_id or 0, header.seq,
                )
            if header.features._value_ & BITS.SEQUENCED:
                self.requester.sample_rtt(header)
        if header.features._value_ & BITS.SEQUENCED:
            if not self.requester.observe(header):
                self.stats.duplicates += 1
                if tracer is not None:
                    tracer.emit(
                        "packet.dup", self.stack.host.name,
                        header.experiment_id, header.flow_id or 0, header.seq,
                        msg=MSG_TYPE_NAMES[header.msg_type],
                    )
                return  # duplicate
        self._deliver(packet, header)

    def handle_heartbeat(self, header: MmtHeader, heartbeat: HeartbeatPayload) -> None:
        self.stats.heartbeats_received += 1
        if self.config.detect_gaps:
            self.requester.heartbeat(header, heartbeat.highest_seq)

    def _deliver(self, packet: Packet, header: MmtHeader) -> None:
        self.stats.messages_delivered += 1
        self.stats.bytes_delivered += packet.payload_size
        state = self.requester.flow(*header.flow_key)
        state.delivered += 1
        state.bytes_delivered += packet.payload_size
        sent_at = packet.meta.get("sent_at")
        latency = self.sim.now - sent_at if sent_at is not None else 0
        self.delivery_log.time.append(self.sim.now)
        self.delivery_log.latency.append(latency)
        if (
            self.config.adapt_rtt_to_path
            and sent_at is not None
            and latency > 0
            and header.msg_type == MsgType.DATA
        ):
            # Fresh data only: a retransmission's ``sent_at`` is its
            # *original* origination time, so its latency includes the
            # NAK wait and would wildly inflate the path estimate.
            if state.path_delay_ns is None:
                state.path_delay_ns = latency
            else:
                state.path_delay_ns = (state.path_delay_ns + latency) // 2
        tracer = self.stack.tracer
        if tracer is not None:
            tracer.emit(
                "packet.deliver", self.stack.host.name,
                header.experiment_id, header.flow_id or 0, header.seq,
                msg=MSG_TYPE_NAMES[header.msg_type], latency_ns=latency,
            )
        if header.features._value_ & BITS.AGE_TRACKING and header.aged:
            self.stats.aged_packets += 1
            if tracer is not None:
                tracer.emit(
                    "packet.aged", self.stack.host.name,
                    header.experiment_id, header.flow_id or 0, header.seq,
                    age_ns=header.age_ns,
                )
        if header.features._value_ & BITS.TIMELINESS:
            self._check_deadline(header)
        if header.features._value_ & BITS.CONGESTION_CONTROL:
            self._maybe_echo_ce(packet, header)
        if self.config.grant_credits and header.features._value_ & BITS.FLOW_CONTROL:
            self._maybe_grant(packet, header)
        if self.on_message is not None:
            self.on_message(packet, header)

    # -- ECN echo (congestion-control modes) ---------------------------------

    def _maybe_echo_ce(self, packet: Packet, header: MmtHeader) -> None:
        """Echo a CE mark back to the source as a backpressure control.

        The data packet carries its sender's current pacing rate
        (PACING) and source address (BACKPRESSURE) in-band, so the
        receiver needs no per-sender state: it advises
        ``pace_rate × ecn_beta`` and the sender's
        :meth:`MmtSender.apply_backpressure` (``min(current, advised)``)
        makes repeat echoes of the same pre-reduction window no-ops —
        a DCTCP-style once-per-window multiplicative decrease.
        """
        ip = packet.ip
        if ip is None or ip.ecn != ECN_CE:
            return
        self.stats.ce_marks_seen += 1
        bits = header.features._value_
        if not bits & BITS.BACKPRESSURE or not bits & BITS.PACING:
            return
        if header.pace_rate_mbps is None or not header.source_addr:
            return
        advised = max(1, int(header.pace_rate_mbps * self.config.ecn_beta))
        signal = BackpressurePayload(
            advised_rate_mbps=advised,
            origin=self.stack.host.ip,
        )
        if self.stack.send_control(header.source_addr, *control_message(
            MsgType.BACKPRESSURE, signal, header.experiment_id, header.config_id
        )):
            self.stats.ce_echoes_sent += 1

    # -- flow control granting -----------------------------------------------

    def _maybe_grant(self, packet: Packet, header: MmtHeader) -> None:
        ip = packet.ip
        if ip is None:
            return
        self._since_grant += 1
        if self._since_grant < self.config.grant_credits:
            return
        update = WindowUpdatePayload(
            credits=self._since_grant,
            delivered_total=self.stats.messages_delivered,
        )
        self.stack.send_control(ip.src, *control_message(
            MsgType.WINDOW, update, header.experiment_id, header.config_id
        ))
        self.stats.windows_granted += 1
        self._since_grant = 0

    # -- timeliness (mode 2 / "deliver-check") -----------------------------------

    def _check_deadline(self, header: MmtHeader) -> None:
        if self.sim.now <= header.deadline_ns:
            self.stats.deadline_ok += 1
            return
        self.stats.deadline_misses += 1
        if self.stack.tracer is not None:
            self.stack.tracer.emit(
                "deadline.miss", self.stack.host.name,
                header.experiment_id, header.flow_id or 0, header.seq,
                deadline_ns=header.deadline_ns, observed_ns=self.sim.now,
            )
        report = DeadlineMissPayload(
            seq=header.seq or 0,
            deadline_ns=header.deadline_ns,
            observed_ns=self.sim.now,
            experiment_id=header.experiment_id,
        )
        self.stack.send_control(header.notify_addr, *control_message(
            MsgType.DEADLINE_MISS, report, header.experiment_id, header.config_id
        ))

    # -- end-of-run reconciliation ---------------------------------------------

    def request_missing(
        self, experiment_id: int, expected: int, flow_id: int = 0
    ) -> int:
        """Reconcile against an expected message count (end-of-run check).

        DAQ runs know how many messages a run produced; this marks every
        sequence number in ``[0, expected)`` not yet delivered as missing
        and fires a NAK immediately. Returns how many were outstanding.
        """
        state = self.requester.flow(experiment_id, flow_id)
        newly = self.requester.request(
            experiment_id, range(state.base, expected), flow_id
        )
        state.highest_seen = max(state.highest_seen, expected - 1)
        return newly

    def request_sequences(
        self,
        experiment_id: int,
        seqs: Iterable[int],
        flow_id: int = 0,
        buffer_addr: str | None = None,
    ) -> int:
        """Reconcile against an explicit sequence list.

        The stripe-consumer counterpart of :meth:`request_missing`: a
        receiver behind an EJ-FAT-style balancer owns whole windows of
        the flow's sequence space, never ``[0, expected)`` — the farm
        reconciler computes exactly which seqs its bound windows still
        owe and requests those. ``buffer_addr`` seeds the NAK target for
        flows this receiver has no data-derived buffer address for yet
        (e.g. windows remapped to it after a peer crashed). Returns how
        many seqs were newly marked missing.
        """
        return self.requester.request(experiment_id, seqs, flow_id, buffer_addr)

    # -- inspection ---------------------------------------------------------------

    def outstanding(self) -> int:
        """Sequence numbers currently known-missing (awaiting recovery)."""
        return sum(len(s.missing) for s in self.requester.flows.values())

    def complete(self, experiment_id: int, expected: int, flow_id: int = 0) -> bool:
        """True when seqs [0, expected) have all been delivered."""
        state = self.requester.flow(experiment_id, flow_id)
        return state.base >= expected and not state.missing

    def flow_summary(self) -> dict[tuple[int, int], dict[str, int]]:
        """Per-flow counters for telemetry / fairness accounting."""
        return {
            key: {
                "delivered": state.delivered,
                "bytes_delivered": state.bytes_delivered,
                "naks_sent": state.naks_sent,
                "unrecovered": state.unrecovered,
                "retransmissions": state.retransmissions,
                "outstanding": len(state.missing),
            }
            for key, state in sorted(self.requester.flows.items())
        }
