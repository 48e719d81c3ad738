"""On-clock time-series sampling.

The :class:`Sampler` is an engine citizen in the same idiom as
:class:`repro.faults.dynamics.LinkDynamics`: it keeps **exactly one
pending event** on the simulator heap while armed, runs on the engine
clock (so every sample timestamp is deterministic per seed), and costs
nothing when absent — components never know a sampler exists; all
probes are pull-based readers registered from the outside (a testbed
registers the gauge rows of :mod:`repro.telemetry.collect` it samples).

Series are integer ring buffers keyed ``(metric, labels)``. Ring
capacity bounds memory on long soaks the same way the tracer ring
bounds span memory; evictions are counted, never silent.

The sampler is also usable **unarmed**: :meth:`Sampler.sample_now`
takes one snapshot of every probe at the current engine time without
scheduling anything. The soak harness drives its epoch sampling this
way so the engine's event sequence — and therefore every seeded
artifact — is byte-identical to the pre-sampler code.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from ..netsim.engine import Timer
from ..telemetry.registry import label_key

__all__ = ["SampleSeries", "Sampler", "series_name"]


def series_name(metric: str, labels: dict[str, str]) -> str:
    """Human label, e.g. ``queue_bytes{node=u280,port=out}``: a series'
    track name, and the element an SLO breach pins."""
    if not labels:
        return metric
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{metric}{{{inner}}}"


class SampleSeries:
    """One ring-buffered time series: ``(t_ns, value)`` integer pairs."""

    def __init__(
        self, metric: str, labels: dict[str, str], capacity: int
    ) -> None:
        self.metric = metric
        self.labels = {str(k): str(v) for k, v in sorted(labels.items())}
        self.capacity = capacity
        self.points: deque[tuple[int, int]] = deque(maxlen=capacity)
        self.emitted = 0
        self.evicted = 0

    @property
    def key(self) -> tuple[str, tuple[tuple[str, str], ...]]:
        return (self.metric, label_key(self.labels))

    @property
    def name(self) -> str:
        return series_name(self.metric, self.labels)

    def append(self, t_ns: int, value: int) -> None:
        if len(self.points) == self.capacity:
            self.evicted += 1
        self.points.append((int(t_ns), int(value)))
        self.emitted += 1

    def values(self) -> list[int]:
        return [value for _, value in self.points]

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        return f"SampleSeries({self.name}, points={len(self.points)})"


class Sampler:
    """Periodic gauge snapshotter driven by the engine clock.

    Probes are zero-argument callables returning an int-castable value;
    they are read in registration order on every tick, so the sample
    stream is a pure function of (seed, probe set, schedule) and the
    JSONL export is byte-identical across runs and shard counts.

    Observers (``on_sample(series)``) fire after every recorded point —
    the SLO watchdog hooks in here to evaluate rules at engine time.
    """

    def __init__(
        self,
        sim,
        every_ns: int,
        start_ns: int = 0,
        end_ns: int | None = None,
        capacity: int = 4096,
    ) -> None:
        if every_ns <= 0:
            raise ValueError(f"every_ns must be positive, got {every_ns}")
        if end_ns is not None and end_ns < start_ns:
            raise ValueError(f"end_ns {end_ns} precedes start_ns {start_ns}")
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.every_ns = every_ns
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.capacity = capacity
        self._probes: list[tuple[SampleSeries, Callable[[], int]]] = []
        self._series: dict[tuple, SampleSeries] = {}
        self.observers: list[Callable[[SampleSeries], None]] = []
        self.ticks = 0
        self.sample_emits = 0
        self._timer = Timer(sim, self._fire)

    # -- probe registration & recording ----------------------------------

    def watch(
        self, metric: str, probe: Callable[[], int], **labels: str
    ) -> SampleSeries:
        """Register a pull-based gauge probe, read on every tick.

        The series is created eagerly so export order is fixed at
        registration time even if the run ends before the first tick.
        """
        series = self._get_series(metric, labels)
        self._probes.append((series, probe))
        return series

    def record(self, metric: str, value: int, **labels: str) -> SampleSeries:
        """Record one point at the current engine time (manual gauge)."""
        return self._append(self._get_series(metric, labels), value)

    def sample_now(self) -> None:
        """Read every probe once at the current engine time."""
        self.ticks += 1
        for series, probe in self._probes:
            self._append(series, probe())

    def _append(self, series: SampleSeries, value: int) -> SampleSeries:
        series.append(self.sim.now, int(value))
        self.sample_emits += 1
        for observer in self.observers:
            observer(series)
        return series

    def _get_series(self, metric: str, labels: dict) -> SampleSeries:
        key = (metric, label_key(labels))
        series = self._series.get(key)
        if series is None:
            series = SampleSeries(metric, labels, self.capacity)
            self._series[key] = series
        return series

    # -- series access ----------------------------------------------------

    def series(self, metric: str, **labels: str) -> SampleSeries | None:
        return self._series.get((metric, label_key(labels)))

    def all_series(self) -> list[SampleSeries]:
        """Every series in deterministic ``(metric, labels)`` order."""
        return [self._series[key] for key in sorted(self._series)]

    @property
    def evictions(self) -> int:
        return sum(s.evicted for s in self._series.values())

    def __len__(self) -> int:
        return len(self._series)

    # -- self-scheduling (LinkDynamics idiom) -----------------------------

    @property
    def armed(self) -> bool:
        return self._timer.running

    def arm(self) -> None:
        """Schedule the first tick; exactly one event pends thereafter."""
        if self._timer.running:
            raise RuntimeError("sampler already armed")
        if self.start_ns < self.sim.now:
            raise RuntimeError(
                f"sampler start {self.start_ns} is in the past "
                f"(now={self.sim.now})"
            )
        self._timer.start(self.start_ns - self.sim.now)

    def _fire(self) -> None:
        self.sample_now()
        next_ns = self.sim.now + self.every_ns
        if self.end_ns is not None and next_ns > self.end_ns:
            return
        # Our own event is already off the heap, so an empty heap means
        # the workload has quiesced — stop rather than tick an idle
        # simulation forever (run() without a horizon must terminate).
        if self.sim.pending_events() == 0:
            return
        self._timer.start(self.every_ns)
