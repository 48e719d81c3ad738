"""Trace export: schema-versioned JSONL and Chrome trace-event JSON.

The JSONL format mirrors the telemetry snapshot files: one ``meta``
record (schema version, run context, retention counters) followed by
one record per retained event, written in emission order with sorted
keys — so identical seeded runs export byte-identical files, and a
sha256 over the file body is a valid determinism pin
(:func:`trace_digest`).

The Chrome export produces the trace-event format that Perfetto and
``chrome://tracing`` load directly: one lane (thread) per element, an
instant event per span, and real duration slices for queue residency.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, Iterator

from .tracer import TraceEvent, Tracer

TRACE_SCHEMA_VERSION = 1


class TraceError(Exception):
    """Raised for malformed or mismatched trace files."""


#: The one serializer behind every line of a trace file and the digest.
_encode = json.JSONEncoder(sort_keys=True).encode


def _event_lines(events: Iterable[TraceEvent]) -> Iterator[str]:
    """Canonical JSONL records, one at a time: a trace is hashed and
    written as it is serialized, never held whole as text."""
    for event in events:
        record = event.to_dict()
        record["kind"] = "event"
        yield _encode(record)


def write_trace(tracer: Tracer, path: str, meta: dict | None = None) -> int:
    """Write the tracer's retained events to ``path``. Returns records
    written (meta line included)."""
    header = {
        "kind": "meta",
        "schema_version": TRACE_SCHEMA_VERSION,
        "events_emitted": tracer.events_emitted,
        "events_evicted": tracer.events_evicted,
        "events_pinned": tracer.events_pinned,
        "capacity": tracer.capacity,
    }
    header.update(meta or {})
    events = tracer.events()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_encode(header) + "\n")
        handle.writelines(line + "\n" for line in _event_lines(events))
    return 1 + len(events)


def load_trace(path: str) -> tuple[dict, list[TraceEvent]]:
    """Parse a trace file back into ``(meta, events)``."""
    meta: dict = {}
    events: list[TraceEvent] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceError(f"{path}:{line_number}: bad JSON: {exc}") from None
            kind = record.get("kind")
            if kind == "meta":
                if meta:
                    raise TraceError(f"{path}:{line_number}: repeated meta record")
                version = record.get("schema_version")
                if version != TRACE_SCHEMA_VERSION:
                    raise TraceError(
                        f"{path}: schema_version {version!r}, "
                        f"expected {TRACE_SCHEMA_VERSION}"
                    )
                meta = record
            elif kind == "event":
                try:
                    events.append(TraceEvent.from_dict(record))
                except KeyError as exc:
                    raise TraceError(
                        f"{path}:{line_number}: event missing field {exc}"
                    ) from None
            else:
                raise TraceError(f"{path}:{line_number}: unknown kind {kind!r}")
    if not meta:
        raise TraceError(f"{path}: no meta record")
    return meta, events


def trace_digest(events: list[TraceEvent]) -> str:
    """sha256 over the canonical event serialization — the determinism
    pin for seeded runs (meta counters are excluded so a capacity change
    that retains the same events hashes the same)."""
    digest = hashlib.sha256()
    separator = b""
    for line in _event_lines(events):
        digest.update(separator + line.encode())
        separator = b"\n"
    return digest.hexdigest()


def write_chrome_trace(
    events: list[TraceEvent],
    path: str,
    process_name: str = "repro pilot",
    counters=None,
) -> int:
    """Write events in Chrome trace-event format (Perfetto-loadable).

    One thread lane per element (tids assigned deterministically from
    the sorted element names); spans become instant events except
    ``queue.wait``, which renders as a real duration slice covering the
    residency window. Timestamps convert ns → µs (the format's unit).

    ``counters`` (optional) is an iterable of
    ``(track_name, [(t_ns, value), ...])`` pairs — sampled gauge series
    become ``ph: "C"`` counter tracks in the same process, so spans and
    queue-depth curves share one timebase (``repro.obs.counter_tracks``
    produces this shape from a sampler). Returns the number of trace
    records written.
    """
    elements = sorted({event.element for event in events})
    tids = {name: tid for tid, name in enumerate(elements, start=1)}
    out: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "args": {"name": process_name},
        }
    ]
    for name in elements:
        out.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tids[name],
                "args": {"name": name},
            }
        )
    for event in events:
        args = {
            "id": event.id,
            "exp": event.experiment_id,
            "flow": event.flow_id,
            "seq": event.seq,
        }
        if event.attrs:
            args.update(event.attrs)
        record = {
            "name": event.kind,
            "cat": event.kind.split(".", 1)[0],
            "pid": 1,
            "tid": tids[event.element],
            "ts": event.ts_ns / 1000,
            "args": args,
        }
        wait_ns = (event.attrs or {}).get("wait_ns")
        if event.kind == "queue.wait" and isinstance(wait_ns, int):
            record["ph"] = "X"
            record["ts"] = (event.ts_ns - wait_ns) / 1000
            record["dur"] = wait_ns / 1000
        else:
            record["ph"] = "i"
            record["s"] = "t"
        out.append(record)
    for track_name, points in counters or ():
        for t_ns, value in points:
            out.append(
                {
                    "name": track_name,
                    "ph": "C",
                    "pid": 1,
                    "ts": t_ns / 1000,
                    "args": {"value": value},
                }
            )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": out}, handle, sort_keys=True)
        handle.write("\n")
    return len(out)
