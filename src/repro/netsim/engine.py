"""Discrete-event simulation engine.

A :class:`Simulator` owns a virtual clock (integer nanoseconds) and a
heap of scheduled callbacks. Components schedule work with
:meth:`Simulator.schedule` / :meth:`Simulator.schedule_at`, which
return nothing; what must be cancelled or restarted is a :class:`Timer`.

Determinism: ties at the same timestamp fire in scheduling order, and
all randomness in the library flows through explicit ``random.Random``
instances (see :meth:`Simulator.rng`) seeded from the simulator seed,
so a run is fully reproducible from ``Simulator(seed=...)``.

Performance notes (see README "Performance"): an event is nothing but
its heap entry ``(time_ns, seq, callback, args)``; ``seq`` is unique, so
heap sift compares ints at C speed, and no object is built per event.
A :class:`Timer` keeps its entry's seq; stopping it puts the seq in a
cancelled set that the run loop skips (emptying it as it pops) and
``pending_events`` subtracts. When dead entries outnumber live ones the
heap is compacted in place in one O(n) pass, so mass timer restarts
cannot grow it and a reference to :attr:`Simulator.heap` stays valid.

The hop contract: the per-packet hops (a port's tx-done, a link's
delivery, an element's pipeline latency) push their own entry,
``heappush(sim.heap, (sim.now + delay, next(sim.seqs), callback,
args))`` with an int ``delay >= 0``, skipping the ``schedule`` frame.
Nothing else writes the heap outside this module.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Any, Callable

heappush = heapq.heappush


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation engine."""


#: Compaction is skipped below this queue size; scanning a tiny list
#: costs less than tracking would save.
_COMPACT_MIN = 64

#: A conservation audit installs a dict here; links and retransmission
#: buffers built meanwhile enter it as keys. ``None``: no audit, no cost.
audited: dict | None = None


class Simulator:
    """Deterministic discrete-event simulator with an integer-ns clock."""

    def __init__(self, seed: int = 0) -> None:
        #: The event heap of ``(time_ns, seq, callback, args)`` entries;
        #: only ever changed in place (see the hop contract above).
        self.heap: list[tuple[int, int, Callable[..., None], tuple]] = []
        #: Entry sequence numbers: ties fire in the order they were drawn.
        self.seqs = itertools.count()
        #: Current virtual time in nanoseconds (the run loop sets it;
        #: read it, never write it).
        self.now = 0
        #: Seqs of cancelled entries still on the heap.
        self._cancelled: set[int] = set()
        self._running = False
        self._seed = seed
        self._rngs: dict[str, random.Random] = {}
        self.events_processed = 0
        #: Causal tracer (repro.trace.Tracer) or None. Duck-typed so the
        #: engine stays import-free of the trace package; hook sites are
        #: a single ``is not None`` test when tracing is off.
        self.tracer = None

    def rng(self, name: str) -> random.Random:
        """Return a named, stable RNG stream derived from the simulator seed.

        Each distinct ``name`` gets an independent stream, so adding a new
        consumer of randomness does not perturb existing ones.
        """
        if name not in self._rngs:
            self._rngs[name] = random.Random(f"{self._seed}:{name}")
        return self._rngs[name]

    def schedule(self, delay_ns: int, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` to run ``delay_ns`` from now.

        Delays are rounded to the integer-nanosecond clock (int delays —
        the common case — skip the rounding); fractional nanoseconds
        cannot be represented.
        """
        if type(delay_ns) is not int:
            delay_ns = round(delay_ns)
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay_ns})")
        heappush(self.heap, (self.now + delay_ns, next(self.seqs), callback, args))

    def schedule_at(self, time_ns: int, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute virtual time ``time_ns``."""
        if type(time_ns) is not int:
            time_ns = round(time_ns)
        if time_ns < self.now:
            raise SimulationError(f"cannot schedule at {time_ns} before now ({self.now})")
        heappush(self.heap, (time_ns, next(self.seqs), callback, args))

    def _cancel(self, seq: int) -> None:
        """Mark the queued entry ``seq`` dead; compacts when dead entries
        outnumber live ones (lazy deletion would otherwise leak)."""
        cancelled = self._cancelled
        cancelled.add(seq)
        heap = self.heap
        before = len(heap)
        if before >= _COMPACT_MIN and before - len(cancelled) < before // 2:
            heap[:] = [entry for entry in heap if entry[1] not in cancelled]
            heapq.heapify(heap)
            cancelled.clear()
            if self.tracer is not None:
                self.tracer.emit("engine.compact", "engine", before=before, after=len(heap))

    def run(self, until_ns: int | None = None, max_events: int | None = None) -> int:
        """Run events until the queue drains, ``until_ns``, or ``max_events``.

        Returns the number of events processed by this call. When
        ``until_ns`` is given the clock is advanced to exactly ``until_ns``
        on return (even if the queue drained earlier), so back-to-back
        ``run(until_ns=...)`` calls observe a monotonic clock.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        processed = 0
        heap = self.heap
        cancelled = self._cancelled
        heappop = heapq.heappop
        horizon = until_ns if until_ns is not None else float("inf")
        budget = -1 if max_events is None else max(max_events, 0)
        try:
            while heap and processed != budget:
                entry = heappop(heap)
                if entry[1] in cancelled:
                    cancelled.discard(entry[1])
                    continue
                if entry[0] > horizon:
                    heappush(heap, entry)
                    break
                self.now = entry[0]
                entry[2](*entry[3])
                self.events_processed += 1
                processed += 1
            if until_ns is not None and self.now < until_ns:
                self.now = until_ns
        finally:
            self._running = False
        return processed

    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1))."""
        return len(self.heap) - len(self._cancelled)


class Timer:
    """A restartable one-shot timer bound to a simulator: the one
    cancellable thing, with the start/stop/restart shape retransmission
    and deadline timers need."""

    __slots__ = ("_sim", "_callback", "_seq", "expires_at")

    def __init__(self, sim: Simulator, callback: Callable[[], None]) -> None:
        self._sim = sim
        self._callback = callback
        #: The seq of the armed entry, or None.
        self._seq: int | None = None
        #: Absolute expiry time, or None when not running.
        self.expires_at: int | None = None

    @property
    def running(self) -> bool:
        """True while the timer is armed and has not fired."""
        return self._seq is not None

    def start(self, delay_ns: int) -> None:
        """Arm the timer; restarts it if already running."""
        if self._seq is not None:
            self.stop()
        if type(delay_ns) is not int:
            delay_ns = round(delay_ns)
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay_ns})")
        sim = self._sim
        self.expires_at = time_ns = sim.now + delay_ns
        self._seq = seq = next(sim.seqs)
        heappush(sim.heap, (time_ns, seq, self._fire, ()))

    def stop(self) -> None:
        """Disarm the timer; harmless if it is not running."""
        if self._seq is not None:
            self._sim._cancel(self._seq)
            self._seq = self.expires_at = None

    def _fire(self) -> None:
        self._seq = self.expires_at = None
        self._callback()
