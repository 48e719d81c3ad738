"""Discrete-event simulation engine.

A :class:`Simulator` owns a virtual clock (integer nanoseconds) and a
priority queue of scheduled callbacks. Components schedule work with
:meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` and the
returned :class:`Event` handle can be cancelled (timers).

Determinism: ties at the same timestamp fire in scheduling order, and
all randomness in the library flows through explicit ``random.Random``
instances (see :meth:`Simulator.rng`) seeded from the simulator seed,
so a run is fully reproducible from ``Simulator(seed=...)``.

Performance notes (see README "Performance"): the heap holds plain
``(time, seq, event)`` tuples — heap sift compares ints at C speed and
never falls back to rich comparison of event objects. :class:`Event`
uses ``__slots__`` and is only the cancellation handle. Cancelled
events stay in the heap (removing from a heap is O(n)) but are counted:
``pending_events`` is O(1) off a live counter, and when cancelled
entries outnumber live ones the queue is compacted in one O(n) pass
(``heapify``), so mass timer restarts (every retransmission window)
cannot grow the heap without bound. ``schedule`` takes a fast path for
int delays — the common case; in-tree callers schedule integer
nanoseconds — and only rounds floats.
"""

from __future__ import annotations

import heapq
import random
from typing import Any, Callable


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation engine."""


#: Compaction is skipped below this queue size; scanning a tiny list
#: costs less than tracking would save.
_COMPACT_MIN = 64


class Event:
    """A scheduled callback; returned by ``schedule`` so it can be cancelled."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: int,
        seq: int,
        callback: Callable[..., None],
        args: tuple = (),
        sim: "Simulator | None" = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: The simulator whose queue holds this event, until it fires or
        #: is cancelled (what :meth:`cancel` reports back to).
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing; cancelling twice is harmless."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            self._sim = None
            sim._note_cancelled()


class Simulator:
    """Deterministic discrete-event simulator with an integer-ns clock."""

    def __init__(self, seed: int = 0) -> None:
        #: Heap of (time, seq, Event); plain tuples keep heap sift
        #: comparisons on ints (no dataclass rich-compare in the loop).
        self._queue: list[tuple[int, int, Event]] = []
        self._now = 0
        self._seq = 0
        self._running = False
        self._seed = seed
        self._rngs: dict[str, random.Random] = {}
        self.events_processed = 0
        #: Not-yet-cancelled events still queued (kept exact so
        #: pending_events() is O(1) instead of scanning the heap).
        self._live = 0
        #: Causal tracer (repro.trace.Tracer) or None. Duck-typed so the
        #: engine stays import-free of the trace package; hook sites are
        #: a single ``is not None`` test when tracing is off.
        self.tracer = None

    @property
    def now(self) -> int:
        """Current virtual time in nanoseconds."""
        return self._now

    def rng(self, name: str) -> random.Random:
        """Return a named, stable RNG stream derived from the simulator seed.

        Each distinct ``name`` gets an independent stream, so adding a new
        consumer of randomness does not perturb existing ones.
        """
        if name not in self._rngs:
            self._rngs[name] = random.Random(f"{self._seed}:{name}")
        return self._rngs[name]

    def schedule(self, delay_ns: int, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay_ns`` from now.

        Delays are rounded to the integer-nanosecond clock (int delays —
        the common case — skip the rounding); fractional nanoseconds
        cannot be represented.
        """
        if type(delay_ns) is not int:
            delay_ns = round(delay_ns)
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay_ns})")
        time_ns = self._now + delay_ns
        seq = self._seq
        self._seq = seq + 1
        event = Event(time_ns, seq, callback, args, self)
        heapq.heappush(self._queue, (time_ns, seq, event))
        self._live += 1
        return event

    def schedule_at(self, time_ns: int, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute virtual time ``time_ns``."""
        if type(time_ns) is not int:
            time_ns = round(time_ns)
        if time_ns < self._now:
            raise SimulationError(
                f"cannot schedule at {time_ns} before now ({self._now})"
            )
        # The rare form rides on the common one (one frame per event
        # for ``schedule``, which nearly every event in a run uses).
        return self.schedule(time_ns - self._now, callback, *args)

    def _note_cancelled(self) -> None:
        """Bookkeeping for Event.cancel(); compacts when dead entries
        outnumber live ones (lazy deletion would otherwise leak)."""
        self._live -= 1
        queue = self._queue
        if len(queue) >= _COMPACT_MIN and self._live < len(queue) // 2:
            self._queue = [entry for entry in queue if not entry[2].cancelled]
            heapq.heapify(self._queue)
            if self.tracer is not None:
                self.tracer.emit(
                    "engine.compact", "engine",
                    before=len(queue), after=len(self._queue),
                )

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
        heappop = heapq.heappop
        try:
            while True:
                # Re-read each iteration: a callback cancelling events
                # can trigger compaction, which replaces the list.
                queue = self._queue
                if not queue:
                    break
                if max_events is not None and processed >= max_events:
                    break
                head = queue[0]
                event = head[2]
                if event.cancelled:
                    heappop(queue)
                    continue
                if until_ns is not None and head[0] > until_ns:
                    break
                heappop(queue)
                event._sim = None
                self._live -= 1
                self._now = head[0]
                event.callback(*event.args)
                self.events_processed += 1
                processed += 1
            if until_ns is not None and self._now < until_ns:
                self._now = until_ns
        finally:
            self._running = False
        return processed

    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1))."""
        return self._live


class Timer:
    """A restartable one-shot timer bound to a simulator.

    Wraps :class:`Event` with start/stop/restart semantics, which is the
    shape retransmission and deadline timers need.
    """

    def __init__(self, sim: Simulator, callback: Callable[[], None]) -> None:
        self._sim = sim
        self._callback = callback
        self._event: Event | None = None

    @property
    def running(self) -> bool:
        """True while the timer is armed and has not fired."""
        return self._event is not None and not self._event.cancelled

    @property
    def expires_at(self) -> int | None:
        """Absolute expiry time, or None when not running."""
        return self._event.time if self.running and self._event else None

    def start(self, delay_ns: int) -> None:
        """Arm the timer; restarts it if already running."""
        self.stop()
        self._event = self._sim.schedule(delay_ns, self._fire)

    def stop(self) -> None:
        """Disarm the timer; harmless if it is not running."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._callback()
