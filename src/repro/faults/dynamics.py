"""Time-varying link dynamics: trajectories instead of step faults.

PR 3's faults are step functions — a link is down or up, a loss model
is installed or not. Real research WANs *drift*: rates sag under
diurnal load, delay ramps as paths re-route, burst loss regimes worsen
and recover. This module makes those drifts first-class and keeps them
deterministic:

- :class:`Trajectory` — a piecewise value-over-time curve (step or
  linearly interpolated between waypoints, optionally periodic for
  diurnal load shapes). A trajectory is a pure function of the engine
  clock: ``value_at(t)`` has no randomness and no hidden state, so the
  sample sequence is identical on every replay.
- :class:`LinkDynamics` — a self-scheduling driver that applies rate /
  delay / loss trajectories to a live :class:`~repro.netsim.link.Link`
  through :meth:`~repro.netsim.link.Link.reconfigure`. It keeps exactly
  one pending engine event at a time (rescheduling itself at the next
  boundary or sample point), so an hour-long soak doesn't pre-heap
  millions of fault actions, and its horizon is bounded — a run to
  quiescence always terminates.
Scheduled Gilbert–Elliott parameter *drift* rides the existing
:class:`~repro.faults.plan.FaultPlan` machinery
(:meth:`~repro.faults.plan.FaultPlan.ge_drift`): ``(at_ns, params)``
waypoints rewrite an installed model in place via
:meth:`~repro.netsim.loss.GilbertElliottLoss.set_params`, preserving
the regime state and the link's RNG stream so loss draws replay
byte-identically per seed.

Trajectory times are relative to the driver's ``start_ns``, so the same
curve can be armed at any point of a plan. Boundaries land *exactly* on
the engine clock: the driver's application times are the waypoint
boundaries themselves (plus, for linear segments, evenly spaced sample
points), never a rounded approximation.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from ..netsim.link import Link


class Trajectory:
    """A piecewise value-over-time curve on the engine clock.

    ``waypoints`` is a sequence of ``(t_ns, value)`` pairs with strictly
    increasing, non-negative times. Before the first waypoint the first
    value holds; after the last waypoint the last value holds (step) or
    the curve stays flat (linear, non-periodic). With ``period_ns`` set
    the curve repeats: time is taken modulo the period, and a linear
    curve closes the loop by interpolating from the last waypoint back
    to the first value at ``period_ns`` — the diurnal shape.
    """

    def __init__(
        self,
        waypoints: Sequence[tuple[int, float]],
        interpolate: str = "step",
        period_ns: int | None = None,
    ) -> None:
        if not waypoints:
            raise ValueError("trajectory needs at least one waypoint")
        if interpolate not in ("step", "linear"):
            raise ValueError(f"interpolate must be 'step' or 'linear', got {interpolate!r}")
        times = [int(t) for t, _v in waypoints]
        if times[0] < 0:
            raise ValueError(f"waypoint times must be >= 0, got {times[0]}")
        for earlier, later in zip(times, times[1:]):
            if later <= earlier:
                raise ValueError(
                    f"waypoint times must be strictly increasing ({earlier} -> {later})"
                )
        if period_ns is not None:
            if period_ns <= times[-1]:
                raise ValueError(
                    f"period_ns ({period_ns}) must exceed the last waypoint ({times[-1]})"
                )
            if times[0] != 0:
                raise ValueError("periodic trajectories must start at t=0")
        self.times = times
        self.values = [v for _t, v in waypoints]
        self.interpolate = interpolate
        self.period_ns = int(period_ns) if period_ns is not None else None

    def value_at(self, t_ns: int) -> float:
        """The curve's value at ``t_ns`` (pure, deterministic)."""
        if t_ns < 0:
            raise ValueError(f"time must be >= 0, got {t_ns}")
        if self.period_ns is not None:
            t_ns %= self.period_ns
        index = bisect_right(self.times, t_ns) - 1
        if index < 0:
            return self.values[0]  # before the first waypoint: hold
        if self.interpolate == "step":
            return self.values[index]
        t0, v0 = self.times[index], self.values[index]
        if index + 1 < len(self.times):
            t1, v1 = self.times[index + 1], self.values[index + 1]
        elif self.period_ns is not None:
            t1, v1 = self.period_ns, self.values[0]  # close the loop
        else:
            return v0  # flat past the last waypoint
        return v0 + (v1 - v0) * (t_ns - t0) / (t1 - t0)

    def change_times(
        self, start_ns: int, end_ns: int, sample_every_ns: int
    ) -> list[int]:
        """Trajectory-relative times in ``[start_ns, end_ns]`` where a
        driver must re-apply the curve.

        Step curves change only at waypoint boundaries (repeated every
        period when periodic). Linear curves additionally need sample
        points between boundaries, spaced ``sample_every_ns`` apart and
        anchored at each segment's start so boundaries are always hit
        exactly — never straddled by a sampling grid.
        """
        if sample_every_ns <= 0:
            raise ValueError(f"sample_every_ns must be positive, got {sample_every_ns}")
        if end_ns < start_ns:
            raise ValueError(f"need start_ns <= end_ns, got {start_ns} > {end_ns}")
        boundaries: list[int] = []
        if self.period_ns is None:
            boundaries.extend(self.times)
        else:
            cycle = 0
            while cycle * self.period_ns <= end_ns:
                base = cycle * self.period_ns
                boundaries.extend(base + t for t in self.times)
                cycle += 1
        out: set[int] = set()
        # Past the last boundary a non-periodic curve is flat — there is
        # nothing to sample; a periodic curve keeps changing to the end.
        horizon = end_ns if self.period_ns is not None else min(end_ns, boundaries[-1])
        for i, boundary in enumerate(boundaries):
            if boundary > end_ns:
                break
            if boundary >= start_ns:
                out.add(boundary)
            if self.interpolate != "linear":
                continue
            # Sample inside the segment [boundary, next boundary).
            segment_end = (
                boundaries[i + 1] if i + 1 < len(boundaries) else horizon + 1
            )
            t = boundary + sample_every_ns
            while t < segment_end and t <= end_ns:
                if t >= start_ns:
                    out.add(t)
                t += sample_every_ns
        return sorted(out)

    @classmethod
    def diurnal(
        cls, low: float, high: float, period_ns: int, steps: int = 24
    ) -> "Trajectory":
        """A periodic day-curve: low at t=0, peaking at half period.

        A raised-cosine sampled at ``steps`` points and linearly
        interpolated between them — the classic diurnal load shape.
        Values are rounded to integers at construction so the curve is
        bit-stable regardless of the platform's libm.
        """
        if steps < 2:
            raise ValueError(f"need at least 2 steps, got {steps}")
        if period_ns <= steps:
            raise ValueError(f"period_ns too small for {steps} steps: {period_ns}")
        waypoints = []
        for i in range(steps):
            phase = 2.0 * math.pi * i / steps
            value = low + (high - low) * (1.0 - math.cos(phase)) / 2.0
            waypoints.append((i * period_ns // steps, float(round(value))))
        return cls(waypoints, interpolate="linear", period_ns=period_ns)

    def __repr__(self) -> str:
        period = f", period={self.period_ns}" if self.period_ns is not None else ""
        return (
            f"Trajectory({len(self.times)} waypoints, {self.interpolate}{period})"
        )


class LinkDynamics:
    """Self-scheduling driver applying trajectories to a live link.

    Trajectory times are relative to ``start_ns`` (engine-absolute).
    ``end_ns`` bounds the driver: past it no events remain, so a run to
    quiescence terminates. The default horizon covers every trajectory's
    last boundary — one full cycle for periodic curves.

    Exactly one engine event is pending at any time; each firing applies
    the current values via :meth:`Link.reconfigure` (which counts the
    changes and emits ``link.reconfig`` spans) and schedules the next
    application time. All times come from the trajectories themselves,
    so two seeded runs apply identical values at identical clock ticks.
    """

    def __init__(
        self,
        link: "Link",
        rate_bps: Trajectory | None = None,
        delay_ns: Trajectory | None = None,
        loss_rate: Trajectory | None = None,
        start_ns: int = 0,
        end_ns: int | None = None,
        sample_every_ns: int = 10_000_000,
    ) -> None:
        if rate_bps is None and delay_ns is None and loss_rate is None:
            raise ValueError("need at least one trajectory")
        if start_ns < 0:
            raise ValueError(f"start_ns must be >= 0, got {start_ns}")
        self.link = link
        self.rate_bps = rate_bps
        self.delay_ns = delay_ns
        self.loss_rate = loss_rate
        self.start_ns = int(start_ns)
        if end_ns is None:
            span = 0
            for trajectory in (rate_bps, delay_ns, loss_rate):
                if trajectory is None:
                    continue
                last = (
                    trajectory.period_ns
                    if trajectory.period_ns is not None
                    else trajectory.times[-1]
                )
                span = max(span, last)
            end_ns = self.start_ns + span
        if end_ns < self.start_ns:
            raise ValueError(f"end_ns ({end_ns}) before start_ns ({self.start_ns})")
        self.end_ns = int(end_ns)
        relative_end = self.end_ns - self.start_ns
        times: set[int] = {0}  # always apply initial values at start
        for trajectory in (rate_bps, delay_ns, loss_rate):
            if trajectory is None:
                continue
            times.update(trajectory.change_times(0, relative_end, sample_every_ns))
        self._times = sorted(times)
        self._index = 0
        self._armed = False
        #: Applications performed (each may change several attributes).
        self.applied = 0

    def __len__(self) -> int:
        """Number of application times the driver will fire."""
        return len(self._times)

    def arm(self) -> None:
        """Schedule the first application on the link's simulator."""
        if self._armed:
            raise RuntimeError("link dynamics already armed")
        self._armed = True
        sim = self.link.sim
        first = self.start_ns + self._times[0]
        if first < sim.now:
            raise ValueError(
                f"dynamics start {first} is in the past (now={sim.now})"
            )
        sim.schedule(first - sim.now, self._fire)

    def _fire(self) -> None:
        relative = self._times[self._index]
        self.link.reconfigure(
            rate_bps=(
                int(round(self.rate_bps.value_at(relative)))
                if self.rate_bps is not None
                else None
            ),
            propagation_delay_ns=(
                int(round(self.delay_ns.value_at(relative)))
                if self.delay_ns is not None
                else None
            ),
            loss_rate=(
                self.loss_rate.value_at(relative)
                if self.loss_rate is not None
                else None
            ),
        )
        self.applied += 1
        self._index += 1
        if self._index >= len(self._times):
            return  # horizon reached: the driver leaves the event loop
        delta = self._times[self._index] - relative
        self.link.sim.schedule(delta, self._fire)
