"""An event-driven TCP model: the baseline DAQ transport of §4.

Implements the mechanisms the paper's comparison hinges on:

- **bytestream with in-order delivery** — the receiver only releases
  data up to the first hole, so one lost segment head-of-line blocks
  every later message (§4.1 point 1);
- **end-to-end recovery** — retransmissions always come from the
  source, so recovery latency is a full path RTT (§4.1 point 2);
- **capacity discovery / congestion avoidance** — slow start plus
  Reno or CUBIC; single-stream goodput is cwnd/RTT-limited on long fat
  networks (§4.1);
- **tuning knobs** — window sizes and initial cwnd: the
  "heavily tuned" configurations DTN operators maintain
  (:mod:`repro.baselines.tuning`).

Simplifications (standard for DES TCP models, none affecting the
compared behaviours): byte sequence numbers start at 0, no ISN
randomization; payload bytes are counted, not materialized; FIN
teardown is omitted — flow completion is "last byte cumulatively
ACKed", the metric benches use; SACK is modelled as exact scoreboard
knowledge at the sender (equivalent to unlimited SACK blocks).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from ..netsim.engine import Timer
from ..netsim.headers import ECN_CE, ECN_ECT0, IpProto, TcpHeader
from ..netsim.host import Host
from ..netsim.packet import Packet
from ..netsim.units import MILLISECOND, SECOND


class TcpError(RuntimeError):
    """Raised for TCP stack misuse."""


#: Ceiling for the exponentially backed-off retransmission timeout.
MAX_RTO_NS = 60 * SECOND
#: Delayed-ACK timer: a held ACK is flushed after this long.
DELAYED_ACK_NS = 40 * MILLISECOND
#: Duplicate-ACK threshold for fast retransmit.
DUPACK_THRESHOLD = 3
#: Initial congestion window in segments (the RFC 6928 default).
INIT_CWND_SEGMENTS = 10


@dataclass
class TcpConfig:
    """Connection tunables (see :mod:`repro.baselines.tuning` for
    ready-made DTN profiles)."""

    mss: int = 8960  # jumbo-frame fitted
    #: Receive buffer → advertised window (tuned DTNs use hundreds of MB).
    recv_buffer_bytes: int = 4 * 1024 * 1024
    #: Congestion controller: "reno" or "cubic".
    congestion_control: str = "cubic"
    min_rto_ns: int = 200 * MILLISECOND
    initial_rto_ns: int = 1 * SECOND
    #: ACK every ``ack_every`` data segments (1 = quickack, 2 = delayed).
    ack_every: int = 1
    #: RFC 3168 ECN: stamp data segments ECT(0), echo CE as ECE, react
    #: once per window with a congestion-window reduction (no loss needed).
    ecn: bool = False


@dataclass
class TcpStats:
    """Per-connection counters."""

    segments_sent: int = 0
    bytes_sent: int = 0
    retransmits: int = 0
    timeouts: int = 0
    fast_retransmits: int = 0
    acks_received: int = 0
    dup_acks: int = 0
    segments_received: int = 0
    bytes_delivered: int = 0
    out_of_order_segments: int = 0
    #: CE-marked data segments seen by the receiver (ECN mode).
    ce_marks_received: int = 0
    #: ACKs carrying ECE seen by the sender (ECN mode).
    ece_acks_received: int = 0
    #: Congestion-window reductions triggered by ECE (once per window).
    ecn_reductions: int = 0


# ---------------------------------------------------------------------------
# Congestion control
# ---------------------------------------------------------------------------


class CongestionControl:
    """Interface all controllers implement. cwnd is in bytes."""

    def __init__(self, config: TcpConfig) -> None:
        self.mss = config.mss
        self.cwnd = INIT_CWND_SEGMENTS * config.mss
        self.ssthresh = 1 << 62

    def on_ack(self, acked_bytes: int, rtt_ns: int | None, now_ns: int) -> None:
        raise NotImplementedError

    def on_enter_recovery(self, now_ns: int) -> None:
        raise NotImplementedError

    def on_timeout(self, now_ns: int) -> None:
        self.ssthresh = max(self.cwnd // 2, 2 * self.mss)
        self.cwnd = self.mss


class RenoCC(CongestionControl):
    """NewReno: slow start, AIMD congestion avoidance."""

    def on_ack(self, acked_bytes: int, rtt_ns: int | None, now_ns: int) -> None:
        if self.cwnd < self.ssthresh:
            self.cwnd += min(acked_bytes, self.mss)
        else:
            self.cwnd += max(1, self.mss * self.mss // self.cwnd)

    def on_enter_recovery(self, now_ns: int) -> None:
        self.ssthresh = max(self.cwnd // 2, 2 * self.mss)
        self.cwnd = self.ssthresh


class CubicCC(CongestionControl):
    """CUBIC (RFC 8312): cubic window growth in congestion avoidance."""

    C = 0.4  # scaling constant, units of segments/s^3
    BETA = 0.7

    def __init__(self, config: TcpConfig) -> None:
        super().__init__(config)
        self._w_max = 0.0
        self._epoch_start_ns: int | None = None
        self._k_s = 0.0

    def on_ack(self, acked_bytes: int, rtt_ns: int | None, now_ns: int) -> None:
        if self.cwnd < self.ssthresh:
            self.cwnd += min(acked_bytes, self.mss)
            return
        if self._epoch_start_ns is None:
            self._epoch_start_ns = now_ns
            w_max_seg = max(self._w_max / self.mss, self.cwnd / self.mss)
            cwnd_seg = self.cwnd / self.mss
            self._k_s = ((w_max_seg - cwnd_seg) / self.C) ** (1.0 / 3.0) if w_max_seg > cwnd_seg else 0.0
        t_s = (now_ns - self._epoch_start_ns) / SECOND
        w_max_seg = max(self._w_max / self.mss, 2.0)
        target_seg = self.C * (t_s - self._k_s) ** 3 + w_max_seg
        target = int(target_seg * self.mss)
        if target > self.cwnd:
            # Approach the cubic target within one RTT's worth of ACKs.
            self.cwnd += max(1, (target - self.cwnd) // max(self.cwnd // self.mss, 1))
        else:
            self.cwnd += max(1, self.mss * self.mss // (100 * self.cwnd))

    def on_enter_recovery(self, now_ns: int) -> None:
        self._w_max = float(self.cwnd)
        self.ssthresh = max(int(self.cwnd * self.BETA), 2 * self.mss)
        self.cwnd = self.ssthresh
        self._epoch_start_ns = None

    def on_timeout(self, now_ns: int) -> None:
        self._w_max = float(self.cwnd)
        super().on_timeout(now_ns)
        self._epoch_start_ns = None


def make_congestion_control(config: TcpConfig) -> CongestionControl:
    """Instantiate the controller named in ``config.congestion_control``."""
    name = config.congestion_control.lower()
    if name == "reno":
        return RenoCC(config)
    if name == "cubic":
        return CubicCC(config)
    raise TcpError(f"unknown congestion control {config.congestion_control!r}")


# ---------------------------------------------------------------------------
# Connection
# ---------------------------------------------------------------------------

_CLOSED = "CLOSED"
_SYN_SENT = "SYN_SENT"
_SYN_RCVD = "SYN_RCVD"
_ESTABLISHED = "ESTABLISHED"


@dataclass
class _Segment:
    start: int
    end: int  # exclusive
    sent_at: int
    retransmitted: bool = False


class TcpConnection:
    """One TCP connection endpoint (full state machine both sides)."""

    def __init__(
        self,
        stack: "TcpStack",
        local_port: int,
        remote_ip: str,
        remote_port: int,
        config: TcpConfig,
        passive: bool = False,
    ) -> None:
        self.stack = stack
        self.sim = stack.sim
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.config = config
        self.state = _CLOSED
        self.stats = TcpStats()
        self.cc = make_congestion_control(config)
        # --- sender state ---
        self.snd_una = 0
        self.snd_nxt = 0
        self._app_queue_bytes = 0
        self._total_queued = 0
        #: In-flight segments in start order (contiguous snd_una..snd_nxt).
        self._segments: deque[_Segment] = deque()
        self._segment_index: dict[int, _Segment] = {}
        #: Receiver-held (SACKed) byte ranges above snd_una, merged+sorted.
        self._sacked: list[tuple[int, int]] = []
        self._dupacks = 0
        self._in_recovery = False
        self._recovery_point = 0
        #: Hole offsets already retransmitted this recovery episode.
        self._retx_done: set[int] = set()
        self._peer_window = config.recv_buffer_bytes
        self._srtt: int | None = None
        self._rttvar = 0
        self._rto_ns = config.initial_rto_ns
        self._rto_timer = Timer(self.sim, self._on_rto)
        self.established_at: int | None = None
        self.on_established: Callable[[], None] | None = None
        self.on_all_acked: Callable[[], None] | None = None
        # message boundaries (cumulative end offsets) for latency probes
        self.message_boundaries: list[tuple[int, int]] = []  # (end offset, queued time)
        # --- ECN state (RFC 3168) ---
        #: Receiver: echo ECE on outgoing ACKs until the peer's CWR arrives.
        self._ece_pending = False
        #: Sender: set CWR on the next data segment after an ECE reaction.
        self._cwr_pending = False
        #: Sender: snd_nxt at the last ECE reaction (once-per-window gate).
        self._ecn_recovery_point = 0
        # --- receiver state ---
        self.rcv_nxt = 0
        self._ooo: list[tuple[int, int]] = []  # disjoint, sorted [start, end)
        self._segs_since_ack = 0
        self._delack_timer = Timer(self.sim, self._emit_ack)
        self.on_delivered: Callable[[int, int], None] | None = None  # (bytes, total)

    # -- public API ---------------------------------------------------------------

    def connect(self) -> None:
        """Begin the three-way handshake (active open)."""
        if self.state != _CLOSED:
            raise TcpError("connect() on a non-closed connection")
        self.state = _SYN_SENT
        self._send_control(syn=True)
        self._rto_timer.start(self._rto_ns)

    def send(self, nbytes: int) -> None:
        """Queue ``nbytes`` of application data for transmission."""
        if nbytes <= 0:
            raise TcpError("send size must be positive")
        self._app_queue_bytes += nbytes
        self._total_queued += nbytes
        if self.state == _ESTABLISHED:
            self._try_send()

    def send_message(self, nbytes: int) -> None:
        """Queue a delimited message (records its boundary for probes)."""
        self.send(nbytes)
        self.message_boundaries.append((self._total_queued, self.sim.now))

    @property
    def bytes_unacked(self) -> int:
        return self.snd_nxt - self.snd_una

    @property
    def all_acked(self) -> bool:
        return self._app_queue_bytes == 0 and self.snd_una == self.snd_nxt

    # -- segment I/O -----------------------------------------------------------------

    def _send_control(self, syn: bool = False, ack: bool = False) -> None:
        header = TcpHeader(
            src_port=self.local_port,
            dst_port=self.remote_port,
            seq=self.snd_nxt,
            ack=self.rcv_nxt,
            flag_syn=syn,
            flag_ack=ack,
            window=self.config.recv_buffer_bytes,
        )
        self.stack.host.send_ip(
            self.remote_ip, IpProto.TCP, l4=header, payload_size=0,
            meta={"flow": f"tcp:{self.local_port}->{self.remote_port}"},
        )

    def _send_data_segment(self, start: int, size: int, retransmit: bool = False) -> None:
        cwr = False
        if self.config.ecn and self._cwr_pending:
            cwr = True
            self._cwr_pending = False
        header = TcpHeader(
            src_port=self.local_port,
            dst_port=self.remote_port,
            seq=start,
            ack=self.rcv_nxt,
            flag_ack=True,
            flag_cwr=cwr,
            window=self.config.recv_buffer_bytes,
        )
        self.stack.host.send_ip(
            self.remote_ip, IpProto.TCP, l4=header, payload_size=size,
            meta={"flow": f"tcp:{self.local_port}->{self.remote_port}"},
            ecn=ECN_ECT0 if self.config.ecn else 0,
        )
        self.stats.segments_sent += 1
        self.stats.bytes_sent += size
        if retransmit:
            self.stats.retransmits += 1

    # -- sending logic ---------------------------------------------------------------

    def _window_available(self) -> int:
        usable = min(self.cc.cwnd, self._peer_window)
        return max(0, usable - self.bytes_unacked)

    def _try_send(self) -> None:
        while self._app_queue_bytes > 0 and self._window_available() >= min(
            self.config.mss, self._app_queue_bytes
        ):
            self._emit_next_segment()

    def _emit_next_segment(self) -> None:
        size = min(self.config.mss, self._app_queue_bytes)
        start = self.snd_nxt
        segment = _Segment(start, start + size, self.sim.now)
        self._segments.append(segment)
        self._segment_index[start] = segment
        self.snd_nxt += size
        self._app_queue_bytes -= size
        self._send_data_segment(start, size)
        if not self._rto_timer.running:
            self._rto_timer.start(self._rto_ns)

    # -- receive path ------------------------------------------------------------------

    def handle_segment(self, packet: Packet, header: TcpHeader) -> None:
        if self.state == _SYN_SENT:
            if header.flag_syn and header.flag_ack:
                self._establish()
                self._send_control(ack=True)
                self._try_send()
            return
        if self.state == _SYN_RCVD:
            if header.flag_syn and not header.flag_ack:
                # Our SYN-ACK was lost; the client retried its SYN.
                self._send_control(syn=True, ack=True)
                return
            if header.flag_ack and not header.flag_syn:
                self._establish()
            # fall through: the ACK may carry data
        if self.state not in (_ESTABLISHED, _SYN_RCVD):
            return
        if header.flag_syn:
            return  # duplicate SYN
        self._peer_window = header.window
        if header.flag_ack:
            self._process_ack(header)
        if packet.payload_size > 0:
            self._process_data(packet, header)

    def _establish(self) -> None:
        if self.state != _ESTABLISHED:
            self.state = _ESTABLISHED
            self.established_at = self.sim.now
            self._rto_timer.stop()
            if self.on_established is not None:
                self.on_established()

    # -- ACK processing (sender side) ---------------------------------------------------

    def _process_ack(self, header: TcpHeader) -> None:
        ack = header.ack
        self.stats.acks_received += 1
        if header.flag_ece and self.config.ecn:
            self.stats.ece_acks_received += 1
            # React at most once per window of data (RFC 3168 §6.1.2):
            # a new reduction only once the window sent at the previous
            # reduction has been fully acknowledged.
            if ack > self._ecn_recovery_point or self._ecn_recovery_point == 0:
                self._ecn_recovery_point = self.snd_nxt
                self._cwr_pending = True
                self.stats.ecn_reductions += 1
                self.cc.on_enter_recovery(self.sim.now)
        for block_start, block_end in header.sack_blocks:
            self._mark_sacked(block_start, block_end)
        if ack > self.snd_una:
            acked = ack - self.snd_una
            self.snd_una = ack
            self._dupacks = 0
            rtt = self._retire_segments(ack)
            if rtt is not None:
                self._update_rto(rtt)
            if self._in_recovery and ack >= self._recovery_point:
                self._in_recovery = False
                self._retx_done.clear()
            self.cc.on_ack(acked, rtt, self.sim.now)
            if self.snd_una == self.snd_nxt:
                self._rto_timer.stop()
                if self.all_acked and self.on_all_acked is not None:
                    self.on_all_acked()
            else:
                self._rto_timer.start(self._rto_ns)
            if self._in_recovery:
                self._retransmit_first_hole()
            self._try_send()
        elif ack == self.snd_una and self.snd_nxt > self.snd_una:
            self._dupacks += 1
            self.stats.dup_acks += 1
            if self._dupacks == DUPACK_THRESHOLD and not self._in_recovery:
                self._enter_recovery()
            elif self._in_recovery:
                self._retransmit_first_hole()
                self._try_send()

    def _mark_sacked(self, start: int, end: int) -> None:
        """Merge a SACK block into the interval scoreboard."""
        if end <= self.snd_una:
            return
        start = max(start, self.snd_una)
        merged: list[tuple[int, int]] = []
        placed = False
        for s, e in self._sacked:
            if end < s or start > e:
                merged.append((s, e))
                continue
            start = min(start, s)
            end = max(end, e)
        for i, (s, _e) in enumerate(merged):
            if start < s:
                merged.insert(i, (start, end))
                placed = True
                break
        if not placed:
            merged.append((start, end))
        self._sacked = merged

    def _retire_segments(self, ack: int) -> int | None:
        rtt: int | None = None
        while self._segments and self._segments[0].end <= ack:
            segment = self._segments.popleft()
            self._segment_index.pop(segment.start, None)
            if not segment.retransmitted:
                rtt = self.sim.now - segment.sent_at
        self._sacked = [(max(s, ack), e) for s, e in self._sacked if e > ack]
        return rtt

    def _enter_recovery(self) -> None:
        self._in_recovery = True
        self._recovery_point = self.snd_nxt
        self._retx_done.clear()
        self.stats.fast_retransmits += 1
        self.cc.on_enter_recovery(self.sim.now)
        self._retransmit_first_hole()

    def _first_hole_offset(self) -> int | None:
        """The lowest unacked byte offset the receiver does not hold."""
        if self.snd_una >= self.snd_nxt:
            return None
        hole = self.snd_una
        for s, e in self._sacked:
            if s > hole:
                break
            hole = max(hole, e)
        return hole if hole < self.snd_nxt else None

    def _retransmit_first_hole(self, force: bool = False) -> None:
        hole = self._first_hole_offset()
        if hole is None:
            return
        if hole in self._retx_done and not force:
            return  # already retransmitted this episode; wait for news
        segment = self._segment_index.get(hole)
        if segment is None:
            # Hole offset should align with a segment start (SACK blocks
            # are segment-granular); if not, fall back to the front.
            segment = self._segments[0] if self._segments else None
        if segment is None:
            return
        self._retx_done.add(segment.start)
        segment.retransmitted = True
        segment.sent_at = self.sim.now
        self._send_data_segment(segment.start, segment.end - segment.start, retransmit=True)

    def _on_rto(self) -> None:
        if self.state == _SYN_SENT:
            self.stats.timeouts += 1
            self._send_control(syn=True)
            self._rto_ns = min(self._rto_ns * 2, MAX_RTO_NS)
            self._rto_timer.start(self._rto_ns)
            return
        if self.snd_una == self.snd_nxt:
            return
        self.stats.timeouts += 1
        self.cc.on_timeout(self.sim.now)
        # Everything in flight at the timeout is presumed lost: stay in
        # recovery until it is all re-acknowledged, retransmitting the
        # next hole as each ACK returns. Without this, a flow that lost
        # a full window (deep incast) advances one segment per *doubled*
        # RTO — ``bytes_unacked`` counts the presumed-lost bytes against
        # cwnd and no ACKs arrive to clock anything out.
        self._in_recovery = True
        self._recovery_point = self.snd_nxt
        self._dupacks = 0
        self._sacked = []  # RFC 6582: timeout clears the scoreboard
        self._retx_done.clear()
        self._retransmit_first_hole(force=True)
        self._rto_ns = min(self._rto_ns * 2, MAX_RTO_NS)
        self._rto_timer.start(self._rto_ns)

    def _update_rto(self, rtt_ns: int) -> None:
        if self._srtt is None:
            self._srtt = rtt_ns
            self._rttvar = rtt_ns // 2
        else:
            delta = abs(self._srtt - rtt_ns)
            self._rttvar = (3 * self._rttvar + delta) // 4
            self._srtt = (7 * self._srtt + rtt_ns) // 8
        self._rto_ns = max(self.config.min_rto_ns, self._srtt + 4 * self._rttvar)

    # -- data processing (receiver side) ----------------------------------------------

    def _process_data(self, packet: Packet, header: TcpHeader) -> None:
        self.stats.segments_received += 1
        if self.config.ecn:
            if header.flag_cwr:
                # Sender reacted; stop echoing ECE (RFC 3168 §6.1.3).
                self._ece_pending = False
            ip = packet.ip
            if ip is not None and ip.ecn == ECN_CE:
                # Checked after CWR so a CE-marked CWR segment still
                # starts a fresh ECE episode.
                self._ece_pending = True
                self.stats.ce_marks_received += 1
        start, end = header.seq, header.seq + packet.payload_size
        if end <= self.rcv_nxt:
            self._emit_ack()  # pure duplicate, re-ACK
            return
        if start > self.rcv_nxt:
            self.stats.out_of_order_segments += 1
            self._insert_ooo(start, end)
            self._emit_ack(force=True)
            return
        # In-order (possibly overlapping) data: advance rcv_nxt.
        self.rcv_nxt = max(self.rcv_nxt, end)
        self._absorb_ooo()
        delivered = self.rcv_nxt
        self.stats.bytes_delivered = delivered
        if self.on_delivered is not None:
            self.on_delivered(end - start, delivered)
        self._segs_since_ack += 1
        if self._segs_since_ack >= self.config.ack_every:
            self._emit_ack()
        elif not self._delack_timer.running:
            self._delack_timer.start(DELAYED_ACK_NS)

    def _insert_ooo(self, start: int, end: int) -> None:
        intervals = self._ooo + [(start, end)]
        intervals.sort()
        merged: list[tuple[int, int]] = []
        for s, e in intervals:
            if merged and s <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], e))
            else:
                merged.append((s, e))
        self._ooo = merged

    def _absorb_ooo(self) -> None:
        while self._ooo and self._ooo[0][0] <= self.rcv_nxt:
            _s, e = self._ooo.pop(0)
            self.rcv_nxt = max(self.rcv_nxt, e)

    def _emit_ack(self, force: bool = False) -> None:
        self._segs_since_ack = 0
        self._delack_timer.stop()
        sack_blocks = tuple(self._ooo[-3:])
        header = TcpHeader(
            src_port=self.local_port,
            dst_port=self.remote_port,
            seq=self.snd_nxt,
            ack=self.rcv_nxt,
            flag_ack=True,
            flag_ece=self._ece_pending,
            window=self.config.recv_buffer_bytes,
            sack_blocks=sack_blocks,
        )
        self.stack.host.send_ip(
            self.remote_ip, IpProto.TCP, l4=header, payload_size=0,
            meta={"flow": f"tcp-ack:{self.local_port}->{self.remote_port}"},
        )


# ---------------------------------------------------------------------------
# Stack
# ---------------------------------------------------------------------------


class TcpStack:
    """Per-host TCP: connection table, listeners, demux."""

    def __init__(self, host: Host) -> None:
        self.host = host
        self.sim = host.sim
        self._connections: dict[tuple[int, str, int], TcpConnection] = {}
        self._listeners: dict[int, tuple[TcpConfig, Callable[[TcpConnection], None] | None]] = {}
        self._next_port = 40000
        self.rx_no_connection = 0
        host.register_l3_protocol(IpProto.TCP, self._receive)

    def listen(
        self,
        port: int,
        config: TcpConfig | None = None,
        on_connection: Callable[[TcpConnection], None] | None = None,
    ) -> None:
        if port in self._listeners:
            raise TcpError(f"{self.host.name}: TCP port {port} already listening")
        self._listeners[port] = (config or TcpConfig(), on_connection)

    def connect(
        self,
        remote_ip: str,
        remote_port: int,
        config: TcpConfig | None = None,
        local_port: int | None = None,
    ) -> TcpConnection:
        port = local_port if local_port is not None else self._allocate_port()
        connection = TcpConnection(
            self, port, remote_ip, remote_port, config or TcpConfig()
        )
        self._connections[(port, remote_ip, remote_port)] = connection
        connection.connect()
        return connection

    def _allocate_port(self) -> int:
        self._next_port += 1
        return self._next_port

    def _receive(self, packet: Packet) -> None:
        tcp = packet.l4
        ip = packet.ip
        if tcp is None or ip is None:
            self.rx_no_connection += 1
            return
        key = (tcp.dst_port, ip.src, tcp.src_port)
        connection = self._connections.get(key)
        if connection is None and tcp.flag_syn and not tcp.flag_ack:
            listener = self._listeners.get(tcp.dst_port)
            if listener is None:
                self.rx_no_connection += 1
                return
            config, on_connection = listener
            connection = TcpConnection(
                self, tcp.dst_port, ip.src, tcp.src_port, config, passive=True
            )
            connection.state = _SYN_RCVD
            self._connections[key] = connection
            connection._send_control(syn=True, ack=True)
            if on_connection is not None:
                on_connection(connection)
            return
        if connection is None:
            self.rx_no_connection += 1
            return
        connection.handle_segment(packet, tcp)
