"""Declarative SLO rules evaluated on samples at engine time.

A rule is ``metric{label=value,...} agg op threshold`` — e.g.::

    queue_bytes{node=u280} p99 <= 262144
    soak_retx_occupancy_pct max <= 100
    soak_unrecovered last == 0

Aggregates run over a series' ring contents; labels are a subset
match (a rule with no labels watches every series of that metric).

The :class:`Watchdog` registers as a sampler observer and re-evaluates
the matching rules after every recorded point, so the **first**
violation is caught at the engine time it happens — and, when a tracer
is attached, pins the flight recorder right then: the violating
metric's series name becomes the anomalous element, so the timeline
that led up to the breach survives ring eviction (PR 5 semantics).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .sampler import SampleSeries, Sampler, series_name

__all__ = ["HealthEvent", "HealthReport", "SloRule", "Watchdog"]

_AGGS = ("last", "max", "min", "mean", "p50", "p99")
_OPS = ("<=", ">=", "==", "<", ">")

_RULE_RE = re.compile(
    r"^\s*(?P<metric>[A-Za-z_][\w.]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<agg>last|max|min|mean|p50|p99)"
    r"\s*(?P<op>==|<=|>=|<|>)"
    r"\s*(?P<threshold>-?\d+(?:\.\d+)?)\s*$"
)


def _percentile(values: list[int], fraction: float) -> float:
    """Nearest-rank percentile (same convention as repro.analysis)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return float(ordered[rank - 1])


@dataclass(frozen=True)
class SloRule:
    """One declarative objective over a sampled metric."""

    metric: str
    agg: str = "max"
    op: str = "<="
    threshold: float = 0
    labels: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.agg not in _AGGS:
            raise ValueError(f"unknown aggregate {self.agg!r} (want {_AGGS})")
        if self.op not in _OPS:
            raise ValueError(f"unknown operator {self.op!r} (want {_OPS})")

    @classmethod
    def parse(cls, text: str) -> "SloRule":
        """Parse ``metric{k=v} agg op threshold``."""
        match = _RULE_RE.match(text)
        if match is None:
            raise ValueError(
                f"unparseable SLO rule {text!r} "
                "(want 'metric{label=value} agg op threshold')"
            )
        labels: list[tuple[str, str]] = []
        raw = match.group("labels")
        if raw:
            for pair in raw.split(","):
                key, sep, value = pair.partition("=")
                if not sep or not key.strip():
                    raise ValueError(f"bad label {pair!r} in rule {text!r}")
                labels.append((key.strip(), value.strip()))
        threshold_text = match.group("threshold")
        threshold = (
            float(threshold_text) if "." in threshold_text
            else int(threshold_text)
        )
        return cls(
            metric=match.group("metric"),
            agg=match.group("agg"),
            op=match.group("op"),
            threshold=threshold,
            labels=tuple(sorted(labels)),
        )

    def matches(self, series: SampleSeries) -> bool:
        if series.metric != self.metric:
            return False
        return all(series.labels.get(k) == v for k, v in self.labels)

    def aggregate(self, values: list[int]) -> int | float:
        if not values:
            raise ValueError("aggregate over empty series")
        if self.agg == "last":
            return values[-1]
        if self.agg == "max":
            return max(values)
        if self.agg == "min":
            return min(values)
        if self.agg == "mean":
            return sum(values) / len(values)
        return _percentile(values, 0.5 if self.agg == "p50" else 0.99)

    def holds(self, observed: int | float) -> bool:
        if self.op == "<=":
            return observed <= self.threshold
        if self.op == ">=":
            return observed >= self.threshold
        if self.op == "<":
            return observed < self.threshold
        if self.op == ">":
            return observed > self.threshold
        return observed == self.threshold

    def __str__(self) -> str:
        selector = series_name(self.metric, dict(self.labels))
        return f"{selector} {self.agg} {self.op} {self.threshold}"


@dataclass
class HealthEvent:
    """One rule/series pair in violation."""

    rule: str
    metric: str
    labels: dict[str, str]
    agg: str
    op: str
    threshold: float
    observed: int | float
    at_ns: int  # engine time of the first violating evaluation

    @property
    def series_name(self) -> str:
        return series_name(self.metric, self.labels)

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "metric": self.metric,
            "labels": dict(self.labels),
            "agg": self.agg,
            "op": self.op,
            "threshold": self.threshold,
            "observed": self.observed,
            "at_ns": self.at_ns,
        }


@dataclass
class HealthReport:
    """Roll-up of an entire run's SLO evaluations."""

    rules: int
    evaluations: int
    events: list[HealthEvent] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.events

    @property
    def violations(self) -> int:
        return len(self.events)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "rules": self.rules,
            "evaluations": self.evaluations,
            "violations": self.violations,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HealthReport":
        events = [
            HealthEvent(
                rule=row["rule"],
                metric=row["metric"],
                labels=dict(row["labels"]),
                agg=row["agg"],
                op=row["op"],
                threshold=row["threshold"],
                observed=row["observed"],
                at_ns=row["at_ns"],
            )
            for row in data.get("events", [])
        ]
        return cls(
            rules=data["rules"],
            evaluations=data["evaluations"],
            events=events,
        )


#: Label keys whose value names a topology component worth pinning
#: alongside the synthetic ``slo:`` element — the flight recorder then
#: keeps the offending component's own spans too, not just the breach.
_COMPONENT_LABELS = ("element", "node", "link", "host", "backend")


class Watchdog:
    """Evaluates SLO rules incrementally as samples land.

    Violation identity is ``(rule, series)``: the first breach emits a
    ``slo.violation`` span and pins the flight recorder; later breaches
    of the same pair only refresh ``observed`` (so the report carries
    the run-final aggregate, not the first excursion).
    """

    def __init__(
        self,
        rules,
        sampler: Sampler | None = None,
        tracer=None,
    ) -> None:
        self.rules: tuple[SloRule, ...] = tuple(
            SloRule.parse(r) if isinstance(r, str) else r for r in rules
        )
        self.sampler = sampler
        self.tracer = tracer
        self.evaluations = 0
        self._events: dict[tuple, HealthEvent] = {}
        if sampler is not None:
            sampler.observers.append(self.on_sample)

    # -- evaluation -------------------------------------------------------

    def on_sample(self, series: SampleSeries) -> None:
        """Sampler observer hook: re-check rules matching this series."""
        for index, rule in enumerate(self.rules):
            if rule.matches(series):
                self._evaluate(index, rule, series)

    def check(self) -> None:
        """Evaluate every rule against every matching series now."""
        if self.sampler is None:
            return
        for series in self.sampler.all_series():
            self.on_sample(series)

    def _evaluate(self, index: int, rule: SloRule, series: SampleSeries) -> None:
        values = series.values()
        if not values:
            return
        self.evaluations += 1
        observed = rule.aggregate(values)
        if rule.holds(observed):
            return
        key = (index, series.key)
        event = self._events.get(key)
        if event is not None:
            event.observed = observed
            return
        at_ns = series.points[-1][0]
        event = HealthEvent(
            rule=str(rule),
            metric=series.metric,
            labels=dict(series.labels),
            agg=rule.agg,
            op=rule.op,
            threshold=rule.threshold,
            observed=observed,
            at_ns=at_ns,
        )
        self._events[key] = event
        self._pin(rule, series, observed)

    def _pin(self, rule: SloRule, series: SampleSeries, observed) -> None:
        if self.tracer is None:
            return
        element = f"slo:{series.name}"
        # Pin before emitting: the breach span then routes straight to
        # the pinned list instead of displacing a ring slot, and the
        # offending component's retained history is rescued intact.
        self.tracer.pin_element(element)
        for key in _COMPONENT_LABELS:
            value = series.labels.get(key)
            if value:
                self.tracer.pin_element(value)
        self.tracer.emit(
            "slo.violation",
            element,
            metric=series.metric,
            rule=str(rule),
            observed=observed,
            threshold=rule.threshold,
        )

    # -- results ----------------------------------------------------------

    def events(self) -> list[HealthEvent]:
        """Violations ordered by (rule declaration, series labels)."""
        return [self._events[key] for key in sorted(self._events)]

    def report(self) -> HealthReport:
        return HealthReport(
            rules=len(self.rules),
            evaluations=self.evaluations,
            events=self.events(),
        )
