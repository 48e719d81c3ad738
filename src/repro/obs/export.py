"""Schema-versioned JSONL export for sampled time series.

Format mirrors ``repro.trace.export``: first line is a ``meta`` record
carrying the schema version and sampler counters, every further line
is one ``series`` record::

    {"kind": "meta", "schema_version": 1, "every_ns": ..., ...}
    {"kind": "series", "metric": ..., "labels": {...}, "points": [[t, v], ...]}

Series are written in ``(metric, labels)`` order and every record is
``sort_keys`` JSON, so same-seed runs produce byte-identical files —
:func:`series_digest` pins that in tests across ``--jobs`` counts.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterator
from pathlib import Path

from ..telemetry.export import read_records
from .sampler import Sampler, series_name

__all__ = [
    "OBS_SCHEMA_VERSION",
    "counter_tracks",
    "load_series",
    "series_digest",
    "series_records",
    "write_series",
]

OBS_SCHEMA_VERSION = 1


def _record(series) -> dict:
    return {
        "metric": series.metric,
        "labels": dict(series.labels),
        "points": [[t, v] for t, v in series.points],
    }


def series_records(sampler: Sampler) -> list[dict]:
    """Every series as a JSON-ready record, deterministic order."""
    return [_record(series) for series in sampler.all_series()]


def _record_lines(records) -> Iterator[str]:
    for record in records:
        yield json.dumps({"kind": "series", **record}, sort_keys=True)


def write_series(sampler: Sampler, path: str | Path, meta: dict | None = None) -> int:
    """Write the sample series as JSONL; returns the series count."""
    records = series_records(sampler)
    header = {
        "kind": "meta",
        "schema_version": OBS_SCHEMA_VERSION,
        "every_ns": sampler.every_ns,
        "ticks": sampler.ticks,
        "sample_emits": sampler.sample_emits,
        "evictions": sampler.evictions,
        "series": len(records),
    }
    if meta:
        header.update(meta)
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(_record_lines(records))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(records)


def load_series(path: str | Path) -> tuple[dict, list[dict]]:
    """Read a series JSONL file back; returns ``(meta, records)`` without
    their ``kind`` keys. Malformed files raise ``ValueError``."""
    meta, records = read_records(path, OBS_SCHEMA_VERSION, ("series",), ValueError)
    for record in (meta, *records):
        del record["kind"]
    return meta, records


def series_digest(source) -> str:
    """SHA-256 over the canonical series records.

    ``source`` may be a :class:`Sampler` or a pre-built record list. A sampler's
    series are hashed one record at a time, never held whole as records
    or text.
    """
    records = map(_record, source.all_series()) if isinstance(source, Sampler) else source
    digest = hashlib.sha256()
    separator = ""
    for line in _record_lines(records):
        digest.update((separator + line).encode("utf-8"))
        separator = "\n"
    return digest.hexdigest()


def counter_tracks(source) -> list[tuple[str, list[tuple[int, int]]]]:
    """Perfetto counter tracks: ``(track_name, [(t_ns, value), ...])``.

    Accepts a :class:`Sampler` or a record list; feed the result to
    :func:`repro.trace.export.write_chrome_trace` (``counters=``) to
    merge queue-depth curves into the span timeline.
    """
    records = series_records(source) if isinstance(source, Sampler) else source
    return [
        (series_name(record["metric"], record["labels"]), [(t, v) for t, v in record["points"]])
        for record in records
    ]
