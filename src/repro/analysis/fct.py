"""Flow-completion-time extraction (the Fig. 2 head-to-head metric).

A *flow* here is one sender's complete transfer: FCT is the time from
the flow's start (first byte handed to the transport) to the moment the
last byte is known delivered (cumulatively ACKed for TCP, all expected
messages received for MMT, last datagram arrival for UDP). Flows that
never finish within the simulated horizon are first-class citizens of
the report — an incast comparison that silently drops its stragglers
overstates every transport.

Percentiles use *linear interpolation between closest ranks* (the
numpy/Excel "inclusive" method), unlike the nearest-rank
:func:`repro.analysis.metrics.percentile`: FCT distributions are small
(N flows per cell) and heavy-tailed, where nearest-rank p99 of e.g. 16
samples simply returns the maximum and hides tail movement between
transports.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor


class FctError(ValueError):
    """Raised for invalid FCT bookkeeping."""


def interpolated_percentile(samples: list[int] | list[float], fraction: float) -> float:
    """Linear-interpolated percentile of unsorted ``samples``.

    ``fraction`` is in [0, 1]. With one sample every percentile is that
    sample; with N samples the rank ``fraction * (N - 1)`` is split
    between its two closest order statistics.
    """
    if not samples:
        raise FctError("percentile of empty sample set")
    if not 0.0 <= fraction <= 1.0:
        raise FctError(f"fraction must be in [0, 1], got {fraction}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = fraction * (len(ordered) - 1)
    low = floor(rank)
    high = min(low + 1, len(ordered) - 1)
    weight = rank - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


@dataclass
class FlowRecord:
    """One flow's lifecycle: started, maybe finished."""

    flow: str
    started_ns: int
    finished_ns: int | None = None

    @property
    def completed(self) -> bool:
        return self.finished_ns is not None

    @property
    def fct_ns(self) -> int:
        if self.finished_ns is None:
            raise FctError(f"flow {self.flow!r} never completed")
        return self.finished_ns - self.started_ns


@dataclass
class FctSummary:
    """Percentile summary over the *completed* flows of a collector.

    ``unfinished`` reports the stragglers explicitly; percentile fields
    are ``None`` when nothing completed (never fabricated).
    """

    flows: int
    completed: int
    unfinished: int
    unfinished_flows: tuple[str, ...]
    p50_ns: float | None
    p95_ns: float | None
    p99_ns: float | None
    mean_ns: float | None
    max_ns: int | None

    def as_metrics(self, prefix: str = "") -> dict:
        """Flatten for BENCH rows (None stays None — visible, not 0)."""
        return {
            f"{prefix}flows": self.flows,
            f"{prefix}completed": self.completed,
            f"{prefix}unfinished": self.unfinished,
            f"{prefix}fct_p50_ns": self.p50_ns,
            f"{prefix}fct_p95_ns": self.p95_ns,
            f"{prefix}fct_p99_ns": self.p99_ns,
            f"{prefix}fct_mean_ns": self.mean_ns,
            f"{prefix}fct_max_ns": self.max_ns,
        }


class FctCollector:
    """Records flow start/finish events and summarizes the FCTs."""

    def __init__(self) -> None:
        self._records: dict[str, FlowRecord] = {}

    def start(self, flow: str, now_ns: int) -> None:
        if flow in self._records:
            raise FctError(f"flow {flow!r} started twice")
        self._records[flow] = FlowRecord(flow=flow, started_ns=now_ns)

    def finish(self, flow: str, now_ns: int) -> None:
        record = self._records.get(flow)
        if record is None:
            raise FctError(f"flow {flow!r} finished but never started")
        if record.finished_ns is not None:
            return  # idempotent: late duplicate completion signals are fine
        if now_ns < record.started_ns:
            raise FctError(f"flow {flow!r} finished before it started")
        record.finished_ns = now_ns

    def __len__(self) -> int:
        return len(self._records)

    def summarize(self) -> FctSummary:
        records = list(self._records.values())
        fcts = [r.fct_ns for r in records if r.completed]
        unfinished = tuple(sorted(r.flow for r in records if not r.completed))
        if fcts:
            return FctSummary(
                flows=len(records),
                completed=len(fcts),
                unfinished=len(unfinished),
                unfinished_flows=unfinished,
                p50_ns=interpolated_percentile(fcts, 0.50),
                p95_ns=interpolated_percentile(fcts, 0.95),
                p99_ns=interpolated_percentile(fcts, 0.99),
                mean_ns=sum(fcts) / len(fcts),
                max_ns=max(fcts),
            )
        return FctSummary(
            flows=len(records),
            completed=0,
            unfinished=len(unfinished),
            unfinished_flows=unfinished,
            p50_ns=None,
            p95_ns=None,
            p99_ns=None,
            mean_ns=None,
            max_ns=None,
        )
