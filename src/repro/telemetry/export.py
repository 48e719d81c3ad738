"""JSON-lines files: the snapshot writer, and the one reader of every
JSONL file the repo writes.

A snapshot file is one JSON object per line: a single ``meta`` record
(schema version, run context supplied by the caller) followed by one
record per instrument, exactly :meth:`Metric.to_dict` plus a ``kind``
discriminator. Sampled series (``repro.obs.export``) and causal traces
(``repro.trace.export``) share that shape, so :func:`read_records`
parses all three, each raising its own error type.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .registry import MetricsRegistry, TelemetryError, quantile_from_buckets

SCHEMA_VERSION = 1


@dataclass
class Snapshot:
    """A parsed snapshot: run metadata plus metric records."""

    meta: dict = field(default_factory=dict)
    metrics: list[dict] = field(default_factory=list)

    def of_kind(self, kind: str) -> list[dict]:
        return [m for m in self.metrics if m["kind"] == kind]

    def get(self, name: str, **labels) -> dict | None:
        """First metric record matching ``name`` and all given labels."""
        for metric in self.metrics:
            if metric["name"] != name:
                continue
            if all(metric["labels"].get(k) == str(v) for k, v in labels.items()):
                return metric
        return None

    def value(self, name: str, **labels) -> int | None:
        """Counter/gauge value shortcut (None when absent)."""
        metric = self.get(name, **labels)
        return None if metric is None else metric.get("value")

    def quantile(self, name: str, q: float, **labels) -> int | None:
        """Histogram quantile straight from a snapshot record."""
        metric = self.get(name, **labels)
        if metric is None or metric["kind"] != "histogram":
            return None
        return quantile_from_buckets(
            metric["buckets"],
            metric.get("overflow", 0),
            metric.get("count", 0),
            q,
            observed_max=metric.get("max"),
        )


def write_snapshot(
    registry: MetricsRegistry, path: str, meta: dict | None = None
) -> int:
    """Write one snapshot, replacing ``path``. Returns records written."""
    header = {"kind": "meta", "schema_version": SCHEMA_VERSION, **(meta or {})}
    records = [header, *registry.snapshot()]
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(json.dumps(record, sort_keys=True) + "\n" for record in records)
    return len(records)


def read_records(
    path, schema_version: int, kinds: tuple[str, ...], error: type[Exception]
) -> tuple[dict, list[dict]]:
    """Parse a JSONL file: one ``meta`` record carrying ``schema_version``,
    before any record of one of ``kinds``. Returns ``(meta, records)``;
    a blank line is skipped, anything else malformed raises ``error``
    naming the file and line."""
    meta: dict | None = None
    records: list[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            where = f"{path}:{line_number}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise error(f"{where}: bad JSON: {exc}") from None
            if not isinstance(record, dict):
                raise error(f"{where}: not a JSON object")
            kind = record.get("kind")
            if kind == "meta":
                if meta is not None:
                    raise error(f"{where}: repeated meta record")
                version = record.get("schema_version")
                if version != schema_version:
                    raise error(f"{where}: schema_version {version!r}, expected {schema_version}")
                meta = record
            elif kind not in kinds:
                raise error(f"{where}: unknown kind {kind!r}")
            elif meta is None:
                raise error(f"{where}: {kind} record before the meta record")
            else:
                records.append(record)
    if meta is None:
        raise error(f"{path}: no meta record")
    return meta, records


def read_snapshot(path: str) -> Snapshot:
    """Parse a snapshot file written by :func:`write_snapshot`."""
    meta, metrics = read_records(
        path, SCHEMA_VERSION, ("counter", "gauge", "histogram"), TelemetryError
    )
    return Snapshot(meta=meta, metrics=metrics)
