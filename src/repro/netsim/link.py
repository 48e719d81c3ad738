"""Ports and links.

A :class:`Port` is a node's attachment point: it owns an egress queue
and a transmitter that serializes one packet at a time at the link rate.
A :class:`Link` joins two ports with a full-duplex channel described by
rate, propagation delay, MTU, and a loss model (random loss probability
and/or bit-error rate). Oversized frames are dropped — DAQ networks set
MTUs so that fragmentation never happens (paper §2.1), so the simulator
treats fragmentation as a configuration error, not a feature.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heappush
from typing import TYPE_CHECKING, Callable

from . import engine
from .engine import Simulator
from .loss import LossModel
from .packet import Packet
from .queues import DropTailQueue, QueueDiscipline
from .units import SECOND

if TYPE_CHECKING:
    from .node import Node

#: Default egress queue capacity (bytes); ~1 MB is a typical shallow
#: switch-port buffer at 100 GbE.
DEFAULT_QUEUE_BYTES = 1_000_000

#: Default egress queue for *hosts*: end systems buffer outgoing data
#: in RAM (socket buffers + qdisc) and backpressure the stack rather
#: than drop their own traffic, so host ports get deep queues.
HOST_QUEUE_BYTES = 256_000_000

#: Ethernet framing overhead not carried in Packet headers: preamble (8B)
#: and inter-packet gap (12B) occupy wire time but not buffer space.
WIRE_OVERHEAD_BYTES = 20

#: Nanoseconds a byte takes at 1 b/s (``units.transmission_time_ns``).
_BYTE_NS = 8 * SECOND


@dataclass
class PortStats:
    """Per-port counters."""

    tx_packets: int = 0
    tx_bytes: int = 0
    rx_packets: int = 0
    rx_bytes: int = 0
    drops_queue: int = 0
    drops_mtu: int = 0
    drops_no_link: int = 0


class Port:
    """A node attachment point with an egress queue and transmitter."""

    def __init__(
        self,
        node: "Node",
        name: str,
        queue: QueueDiscipline | None = None,
    ) -> None:
        self.node = node
        self.name = name
        # Note: `queue or ...` would discard an *empty* queue (len == 0
        # makes it falsy), so test identity explicitly.
        self.queue = queue if queue is not None else DropTailQueue(DEFAULT_QUEUE_BYTES)
        # (Whoever swaps the queue later passes the listener on.)
        self.queue.on_discard = self._queue_discarded
        self.link: Link | None = None
        self.stats = PortStats()
        self._busy = False
        # Invoked with each packet just before it is queued for egress;
        # programmable NICs hook this to do header processing on egress.
        self.egress_hooks: list[Callable[[Packet], Packet | None]] = []
        #: Causal tracer (repro.trace.Tracer) or None; records queue
        #: residency and egress drops when installed.
        self.tracer = None

    def send(self, packet: Packet) -> bool:
        """Queue ``packet`` for egress. Returns False if dropped."""
        if self.link is None:
            self.stats.drops_no_link += 1
            return False
        for hook in self.egress_hooks:
            result = hook(packet)
            if result is None:
                return False
            packet = result
        if packet.size_bytes > self.link.max_frame_bytes:
            self.stats.drops_mtu += 1
            if self.tracer is not None:
                self.tracer.packet_event(
                    "port.drop", self.node.name, packet,
                    port=self.name, reason="mtu",
                )
            return False
        if not self.queue.enqueue(packet):
            self.stats.drops_queue += 1
            if self.tracer is not None:
                self.tracer.packet_event(
                    "port.drop", self.node.name, packet,
                    port=self.name, reason="queue",
                )
            return False
        if not self._busy:
            self._transmit_next()
        elif self.tracer is not None:
            # Only a packet behind a busy transmitter can wait: an idle
            # port's queue is empty (the port is its only consumer and
            # goes idle on an empty dequeue), so this one leaves now.
            self.tracer.note_enqueue(packet)
        return True

    def _queue_discarded(self, packet: Packet, reason: str) -> None:
        """The queue dropped a packet it had admitted (``queue.on_discard``)."""
        if self.tracer is not None:
            self.tracer.queue_discard(packet, self.node.name, self.name, reason)

    def _transmit_next(self) -> None:
        packet = self.queue.dequeue()
        if packet is None:
            self._busy = False
            return
        if self.tracer is not None:
            self.tracer.queue_wait(packet, self.node.name, self.name)
        self._busy = True
        size = packet.size_bytes
        self.stats.tx_packets += 1
        self.stats.tx_bytes += size
        # The tx-done, ``units.transmission_time_ns`` on, under the engine's hop contract.
        rate = self.link.rate_bps
        sim = self.node.sim
        heappush(sim.heap, (sim.now + ((size + WIRE_OVERHEAD_BYTES) * _BYTE_NS + rate - 1) // rate,
                            next(sim.seqs), self._tx_done, (packet,)))

    def _tx_done(self, packet: Packet) -> None:
        self.link.propagate(packet, self)
        # Packets left in the queue, by its balance (this port is its one
        # consumer): an empty queue frees the transmitter without a dequeue.
        queue = self.queue
        if queue.enqueued - queue.discarded - self.stats.tx_packets:
            self._transmit_next()
        else:
            self._busy = False

    def deliver(self, packet: Packet) -> None:
        """Ingress entry point, called by the link after propagation."""
        self.stats.rx_packets += 1
        self.stats.rx_bytes += packet.size_bytes
        self.node.receive(packet, self)

    def __repr__(self) -> str:
        return f"Port({self.node.name}.{self.name})"


@dataclass
class LinkStats:
    """Per-link counters (both directions combined)."""

    delivered: int = 0
    lost_random: int = 0
    lost_corruption: int = 0
    #: Packets that arrived while the link was administratively/physically
    #: down — an outage eats them silently on the wire, but the operator
    #: must be able to see how much was lost to the outage.
    lost_down: int = 0
    #: Packets eaten by the attached :class:`~repro.netsim.loss.LossModel`
    #: (burst loss, targeted control-packet loss, ...).
    lost_model: int = 0
    #: Mid-run :meth:`Link.reconfigure` steps that changed the rate /
    #: the propagation delay — trajectory drivers bump these so traces
    #: and INT can attribute latency shifts to link dynamics.
    rate_changes: int = 0
    delay_changes: int = 0
    #: The rate currently in force (mirrors ``Link.rate_bps`` so scrapes
    #: of a drifting link report where the trajectory has taken it).
    current_rate_bps: int = 0


class Link:
    """Full-duplex point-to-point link between two ports.

    Loss model: each packet is independently lost with probability
    ``loss_rate``, and additionally corrupted with probability
    ``1 - (1 - ber) ** bits`` when a bit-error rate is set. Corrupted
    and lost packets simply vanish (the FCS would reject them).
    """

    def __init__(
        self,
        sim: Simulator,
        a: Port,
        b: Port,
        rate_bps: int,
        propagation_delay_ns: int,
        mtu_bytes: int = 9000,
        loss_rate: float = 0.0,
        bit_error_rate: float = 0.0,
        name: str = "",
        loss_model: LossModel | None = None,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError(f"rate must be positive, got {rate_bps}")
        if propagation_delay_ns < 0:
            raise ValueError(f"delay must be >= 0, got {propagation_delay_ns}")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        if not 0.0 <= bit_error_rate < 1.0:
            raise ValueError(f"bit_error_rate must be in [0, 1), got {bit_error_rate}")
        self.sim = sim
        self.ends = (a, b)
        self.rate_bps = rate_bps
        self.propagation_delay_ns = round(propagation_delay_ns)  # int ns, as the heap keeps time
        self.mtu_bytes = mtu_bytes
        #: Largest frame admitted: MTU plus L2 header+FCS (18 bytes).
        #: Fixed with the MTU at construction, so a port's per-packet
        #: size check is one attribute read.
        self.max_frame_bytes = mtu_bytes + 18
        self.loss_rate = loss_rate
        self.bit_error_rate = bit_error_rate
        #: Pluggable loss model consulted before the uniform/BER draws;
        #: swappable at runtime (fault injection installs burst models
        #: mid-run). ``None`` keeps the draw sequence of plain links
        #: untouched, so existing seeded runs replay identically.
        self.loss_model = loss_model
        self.name = name or f"{a.node.name}<->{b.node.name}"
        self.up = True
        self.stats = LinkStats()
        self.stats.current_rate_bps = rate_bps
        #: Causal tracer (repro.trace.Tracer) or None; records wire loss.
        self.tracer = None
        #: ``link:<name>``, looked up at the first loss draw (most links never draw).
        self._rng = None
        a.link = self
        b.link = self
        if engine.audited is not None:
            engine.audited[self] = None

    def reconfigure(
        self,
        rate_bps: int | None = None,
        propagation_delay_ns: int | None = None,
        loss_rate: float | None = None,
    ) -> bool:
        """Change the link's characteristics mid-run (trajectory step).

        Validation matches construction. Semantics are physical: a rate
        change takes effect at the *next* serialization (a packet already
        on the transmitter keeps its old tx time), and a delay change
        applies to packets entering the wire from now on (in-flight
        packets keep the delay they departed with). Both are functions of
        the engine clock only, so seeded runs replay byte-identically.

        Returns True when anything actually changed; changes bump the
        ``rate_changes``/``delay_changes`` stats and emit a
        ``link.reconfig`` trace span so latency shifts in a trace can be
        attributed to the trajectory step that caused them.
        """
        if rate_bps is not None and rate_bps <= 0:
            raise ValueError(f"rate must be positive, got {rate_bps}")
        if propagation_delay_ns is not None and propagation_delay_ns < 0:
            raise ValueError(f"delay must be >= 0, got {propagation_delay_ns}")
        if loss_rate is not None and not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        changed = False
        if rate_bps is not None and int(rate_bps) != self.rate_bps:
            self.rate_bps = int(rate_bps)
            self.stats.rate_changes += 1
            changed = True
        if (
            propagation_delay_ns is not None
            and int(propagation_delay_ns) != self.propagation_delay_ns
        ):
            self.propagation_delay_ns = int(propagation_delay_ns)
            self.stats.delay_changes += 1
            changed = True
        if loss_rate is not None and loss_rate != self.loss_rate:
            self.loss_rate = loss_rate
            changed = True
        self.stats.current_rate_bps = self.rate_bps
        if changed and self.tracer is not None:
            self.tracer.emit(
                "link.reconfig", self.name,
                rate_bps=self.rate_bps,
                delay_ns=self.propagation_delay_ns,
            )
        return changed

    def _stream(self) -> random.Random:
        self._rng = self.sim.rng(f"link:{self.name}")
        return self._rng

    def propagate(self, packet: Packet, from_port: Port) -> None:
        """Carry a fully-serialized packet to the far end (with loss)."""
        if not self.up:
            self.stats.lost_down += 1
            if self.tracer is not None:
                self.tracer.packet_event("link.drop", self.name, packet, reason="down")
            return
        if self.loss_model is not None and self.loss_model.should_drop(
            packet, self._rng or self._stream()
        ):
            self.stats.lost_model += 1
            if self.tracer is not None:
                self.tracer.packet_event("link.drop", self.name, packet, reason="model")
            return
        if self.loss_rate > 0 and (self._rng or self._stream()).random() < self.loss_rate:
            self.stats.lost_random += 1
            if self.tracer is not None:
                self.tracer.packet_event("link.drop", self.name, packet, reason="random")
            return
        if self.bit_error_rate > 0:
            bits = packet.size_bytes * 8
            p_corrupt = 1.0 - (1.0 - self.bit_error_rate) ** bits
            if (self._rng or self._stream()).random() < p_corrupt:
                self.stats.lost_corruption += 1
                if self.tracer is not None:
                    self.tracer.packet_event(
                        "link.drop", self.name, packet, reason="corruption"
                    )
                return
        near, far = self.ends
        destination = far if from_port is near else near
        self.stats.delivered += 1
        sim = self.sim  # the delivery, pushed under the engine's hop contract
        heappush(sim.heap, (sim.now + self.propagation_delay_ns, next(sim.seqs),
                            destination.deliver, (packet,)))

    def __repr__(self) -> str:
        return f"Link({self.name}, {self.rate_bps} bps, {self.propagation_delay_ns} ns)"
