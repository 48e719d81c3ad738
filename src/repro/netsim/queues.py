"""Queue disciplines for egress ports.

All queues count in bytes (the resource links actually contend on) and
expose the same interface: ``enqueue`` (returns False on drop),
``dequeue`` (returns None when empty), ``__len__`` (packets), and byte
occupancy. Disciplines:

- :class:`DropTailQueue` — plain FIFO with a byte limit.
- :class:`RedQueue` — Random Early Detection, for TCP cross-traffic.
- :class:`DeadlineAwareQueue` — the paper's deadline-as-AQM-input idea:
  packets carrying an MMT deadline are scheduled earliest-deadline-first
  and dropped when they can no longer make their deadline ("a signal for
  congestion and an input to active queue management", §5.3).
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from typing import Callable

from .headers import ECN_CE, ECN_ECT0, ECN_ECT1
from .packet import Packet


class QueueDiscipline:
    """Interface shared by all queue disciplines."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.bytes_queued = 0
        #: High-water mark of byte occupancy (telemetry scrapes this).
        self.peak_bytes = 0
        self.enqueued = 0
        self.dropped = 0
        #: Packets dropped *after* admission (push-out, late at dequeue).
        self.discarded = 0
        #: Called with ``(packet, reason)`` for every packet discarded
        #: *after* ``enqueue`` accepted it — a drop the caller of
        #: ``enqueue``/``dequeue`` cannot see in a return value. The
        #: owning :class:`~repro.netsim.link.Port` listens here.
        self.on_discard: Callable[[Packet, str], None] | None = None

    def enqueue(self, packet: Packet) -> bool:
        raise NotImplementedError

    def dequeue(self) -> Packet | None:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def _discard(self, packet: Packet, reason: str) -> None:
        """Count a packet dropped after admission and tell ``on_discard``."""
        self.discarded += 1
        if self.on_discard is not None:
            self.on_discard(packet, reason)

    def _admit(self, size_bytes: int) -> bool:
        """Charge ``size_bytes`` or count a drop. Disciplines keep the
        charge beside the packet and give back exactly that at dequeue:
        a header rewrite may resize a packet while it waits."""
        queued = self.bytes_queued + size_bytes
        if queued > self.capacity_bytes:
            self.dropped += 1
            return False
        self.bytes_queued = queued
        if queued > self.peak_bytes:
            self.peak_bytes = queued
        self.enqueued += 1
        return True


class DropTailQueue(QueueDiscipline):
    """FIFO with a byte limit; arrivals that overflow are dropped."""

    def __init__(self, capacity_bytes: int) -> None:
        super().__init__(capacity_bytes)
        self._fifo: deque[tuple[Packet, int]] = deque()

    def enqueue(self, packet: Packet) -> bool:
        # ``_admit``, inlined: this is every hop's admission.
        size = packet.size_bytes
        queued = self.bytes_queued + size
        if queued > self.capacity_bytes:
            self.dropped += 1
            return False
        self.bytes_queued = queued
        if queued > self.peak_bytes:
            self.peak_bytes = queued
        self.enqueued += 1
        self._fifo.append((packet, size))
        return True

    def dequeue(self) -> Packet | None:
        if not self._fifo:
            return None
        packet, size = self._fifo.popleft()
        self.bytes_queued -= size
        return packet

    def __len__(self) -> int:
        return len(self._fifo)


class RedQueue(DropTailQueue):
    """Random Early Detection (gentle RED on byte occupancy EWMA): a
    drop-tail FIFO that also marks or drops early.

    With ``min_threshold == max_threshold == K`` this degenerates to the
    Fixed-K step AQM used for DCTCP-style ECN: the mark/drop probability
    is 0 at or below K and ``max_drop_probability`` above it (set
    ``max_drop_probability=1.0`` and ``ewma_weight=1.0`` for the
    instantaneous-occupancy step of the incast grid).

    When ``ecn=True``, packets whose IPv4 header carries an ECT
    codepoint (ECT(0) or ECT(1)) are CE-marked *instead of* dropped on
    an early-drop decision; non-ECT packets are dropped as before. The
    RNG draw is consumed identically in both cases, so an ECT and a
    non-ECT run over the same stream see the same decision sequence.

    ``stream()`` returns the RNG the decisions draw from, called at the
    first draw (never for a queue that stays quiet); ``None``: no draws.
    """

    def __init__(
        self,
        capacity_bytes: int,
        min_threshold: float = 0.25,
        max_threshold: float = 0.75,
        max_drop_probability: float = 0.1,
        ewma_weight: float = 0.002,
        stream: Callable[[], random.Random] | None = None,
        ecn: bool = False,
    ) -> None:
        super().__init__(capacity_bytes)
        if not 0 <= min_threshold <= max_threshold <= 1:
            raise ValueError("need 0 <= min_threshold <= max_threshold <= 1")
        self.min_threshold = min_threshold
        self.max_threshold = max_threshold
        self.max_drop_probability = max_drop_probability
        self.ewma_weight = ewma_weight
        self.ecn = ecn
        self._avg = 0.0
        self._stream = stream
        self._rng: random.Random | None = None
        self.early_drops = 0
        #: Packets CE-marked instead of dropped (ECN mode only).
        self.ce_marked = 0

    def mark_probability(self, average_occupancy: float) -> float:
        """Early mark/drop probability at a given average occupancy."""
        if average_occupancy <= self.min_threshold:
            return 0.0
        if average_occupancy >= self.max_threshold:
            return self.max_drop_probability
        span = self.max_threshold - self.min_threshold
        return (
            (average_occupancy - self.min_threshold) / span * self.max_drop_probability
        )

    def enqueue(self, packet: Packet) -> bool:
        queued = self.bytes_queued
        self._avg += self.ewma_weight * (queued / self.capacity_bytes - self._avg)
        if self._avg > self.min_threshold and self._stream is not None:
            probability = self.mark_probability(self._avg)
            if self._rng is None:
                self._rng = self._stream()
            if self._rng.random() < probability:
                ip = packet.ip if self.ecn else None
                if ip is not None and ip.ecn in (ECN_ECT0, ECN_ECT1):
                    ip.ecn = ECN_CE
                    self.ce_marked += 1
                else:
                    self.dropped += 1
                    self.early_drops += 1
                    return False
        size = packet.size_bytes  # ``_admit`` and ``occupancy``, inlined
        queued += size
        if queued > self.capacity_bytes:
            self.dropped += 1
            return False
        self.bytes_queued = queued
        if queued > self.peak_bytes:
            self.peak_bytes = queued
        self.enqueued += 1
        self._fifo.append((packet, size))
        return True


class DeadlineAwareQueue(QueueDiscipline):
    """Earliest-deadline-first queue that sheds already-late packets.

    ``deadline_of`` maps a packet to its absolute delivery deadline in
    nanoseconds, or ``None`` when the packet carries no deadline (such
    packets are served after all deadline-bearing traffic, FIFO among
    themselves). ``now`` supplies current virtual time so that packets
    whose deadline has already passed can be dropped at enqueue — the
    paper's use of transport deadlines as an AQM input (§5.3).

    Admission uses *push-out*: when full, an arriving packet may evict
    queued traffic with a laxer (larger) deadline — best-effort first,
    then the largest-deadline entry — so urgent data is never tail-
    dropped behind bulk backlog.
    """

    def __init__(
        self,
        capacity_bytes: int,
        deadline_of: Callable[[Packet], int | None],
        now: Callable[[], int],
        drop_late: bool = True,
    ) -> None:
        super().__init__(capacity_bytes)
        self._deadline_of = deadline_of
        self._now = now
        self.drop_late = drop_late
        self._heap: list[tuple[int, int, Packet, int]] = []
        self._best_effort: deque[tuple[Packet, int]] = deque()
        self._seq = 0
        self.late_drops = 0
        self.pushouts = 0

    def enqueue(self, packet: Packet) -> bool:
        deadline = self._deadline_of(packet)
        if deadline is not None and self.drop_late and deadline < self._now():
            self.dropped += 1
            self.late_drops += 1
            return False
        size = packet.size_bytes
        if self.bytes_queued + size > self.capacity_bytes and deadline is not None:
            self._push_out(size, deadline)
        if not self._admit(size):
            return False
        if deadline is None:
            self._best_effort.append((packet, size))
        else:
            heapq.heappush(self._heap, (deadline, self._seq, packet, size))
            self._seq += 1
        return True

    def _push_out(self, needed_bytes: int, incoming_deadline: int) -> None:
        """Evict laxer traffic to make room for an urgent arrival."""
        while (
            self._best_effort
            and self.bytes_queued + needed_bytes > self.capacity_bytes
        ):
            victim, size = self._best_effort.pop()
            self._pushed_out(victim, size)
        while self.bytes_queued + needed_bytes > self.capacity_bytes and self._heap:
            worst_index = max(range(len(self._heap)), key=lambda i: self._heap[i][0])
            worst_deadline = self._heap[worst_index][0]
            if worst_deadline <= incoming_deadline:
                return  # the arrival is the laxest packet here; drop it
            _d, _s, victim, size = self._heap.pop(worst_index)
            heapq.heapify(self._heap)
            self._pushed_out(victim, size)

    def _pushed_out(self, victim: Packet, size: int) -> None:
        self.bytes_queued -= size
        self.pushouts += 1
        self.dropped += 1
        self._discard(victim, "pushout")

    def dequeue(self) -> Packet | None:
        while self._heap:
            deadline, _seq, packet, size = heapq.heappop(self._heap)
            self.bytes_queued -= size
            if self.drop_late and deadline < self._now():
                # Too late to be useful downstream: shed it now and count
                # the loss so the operator can see deadline pressure.
                self.late_drops += 1
                self.dropped += 1
                self._discard(packet, "late")
                continue
            return packet
        if self._best_effort:
            packet, size = self._best_effort.popleft()
            self.bytes_queued -= size
            return packet
        return None

    def __len__(self) -> int:
        return len(self._heap) + len(self._best_effort)


class DrrScheduler:
    """Deficit round robin over per-flow FIFOs (Shreedhar–Varghese).

    Unlike the :class:`QueueDiscipline` family this is a *scheduler*:
    it holds arbitrary work items keyed by a hashable flow id and
    answers "whose turn is it" in byte-fair order. Each flow earns
    ``quantum_bytes`` of service credit when its turn starts and spends
    it as items are dequeued; unspent credit carries to its next turn,
    so flows with large items are not starved and flows with small
    items cannot hog the rotation. A flow that drains loses its saved
    credit (standard DRR — idle flows must not bank service).

    Deterministic: rotation order is arrival order of flow activation,
    no randomness anywhere.
    """

    def __init__(self, quantum_bytes: int) -> None:
        if quantum_bytes <= 0:
            raise ValueError(f"quantum must be positive, got {quantum_bytes}")
        self.quantum_bytes = quantum_bytes
        self._queues: dict[object, deque[tuple[object, int]]] = {}
        self._deficit: dict[object, int] = {}
        self._active: deque[object] = deque()
        #: True while the front flow's current turn has been credited.
        self._turn_open = False
        self._pending = 0
        #: Items served per flow (fairness telemetry).
        self.services: dict[object, int] = {}
        #: Bytes served per flow.
        self.bytes_served: dict[object, int] = {}

    def enqueue(self, flow: object, item: object, size_bytes: int) -> None:
        if size_bytes <= 0:
            raise ValueError(f"item size must be positive, got {size_bytes}")
        queue = self._queues.get(flow)
        if queue is None:
            queue = self._queues[flow] = deque()
            self._deficit[flow] = 0
        if not queue:
            self._active.append(flow)
        queue.append((item, size_bytes))
        self._pending += 1

    def dequeue(self) -> tuple[object, object] | None:
        """Next ``(flow, item)`` in DRR order, or None when empty."""
        while self._active:
            flow = self._active[0]
            queue = self._queues[flow]
            if not self._turn_open:
                self._deficit[flow] += self.quantum_bytes
                self._turn_open = True
            item, size = queue[0]
            if size <= self._deficit[flow]:
                queue.popleft()
                self._deficit[flow] -= size
                self._pending -= 1
                self.services[flow] = self.services.get(flow, 0) + 1
                self.bytes_served[flow] = self.bytes_served.get(flow, 0) + size
                if not queue:
                    self._active.popleft()
                    self._deficit[flow] = 0
                    self._turn_open = False
                return flow, item
            # Credit exhausted for this turn: rotate to the next flow.
            # (On a single active flow this re-credits the same flow, so
            # any item is eventually served regardless of quantum.)
            self._active.rotate(-1)
            self._turn_open = False
        return None

    def __len__(self) -> int:
        return self._pending

