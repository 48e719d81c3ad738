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
from itertools import islice
from typing import Iterable, Iterator

from ..telemetry.export import read_records
from .tracer import Spans, TraceEvent, Tracer

TRACE_SCHEMA_VERSION = 1


class TraceError(Exception):
    """Raised for malformed or mismatched trace files."""


#: The real encoder: it writes the meta line, and the compiled writer
#: below hands it whatever it does not render itself.
_encode = json.JSONEncoder(sort_keys=True).encode

#: A record's top-level keys after ``attrs``, in sorted order.
_FIXED = (
    '"element": %s, "ev": %s, "exp": %s, "flow": %s, "id": %s,'
    ' "kind": "event", "seq": %s, "ts": %s}'
)
#: Lines hashed per ``update``: ~400 KiB of text, where the whole trace
#: would be 40 MiB. The bytes hashed are the same whatever this is.
_HASH_BATCH = 2048


class _JsonText(dict):
    """``str`` → its JSON text, encoded the first time it is seen: a
    trace has a few dozen distinct element, kind and value strings."""

    def __missing__(self, text: str) -> str:
        form = self[text] = _encode(text)
        return form


def _compile(keys: tuple) -> tuple[str, list[int]]:
    """One attrs shape's ``%`` template and the order it takes a span's
    values in (attr values by sorted key, then the fixed seven). A key's
    text is cut from a one-entry record, so the encoder still coerces or
    rejects keys that are not strings, as it does keys that do not sort."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    attrs = ", ".join(_encode({keys[i]: 0})[1:-2].replace("%", "%%") + "%s" for i in order)
    head = '{"attrs": {' + attrs + "}, " if keys else "{"
    return head + _FIXED, order + list(range(len(keys), len(keys) + 7))


def _event_lines(events: Iterable[TraceEvent]) -> Iterator[str]:
    """Canonical JSONL records, one at a time: a trace is hashed and
    written as it is serialized, never held whole as text. Each line is
    byte for byte ``_encode(event.to_dict() | {"kind": "event"})`` (the
    oracle in ``tests/trace/test_serializer.py``) from a writer compiled
    for that fixed schema, reading span columns; its lookups are inline
    because a helper call per field, 209 k spans a run, costs more."""
    text = _JsonText()
    layouts: dict[tuple, tuple[str, list[int]]] = {}
    for chunk, lo, hi in Spans.of(events).segments:
        values = chunk.values
        for id, ts, kind, element, exp, flow, seq, keys, start, stop in chunk.rows(lo, hi):
            try:
                template, order = layouts[keys]
            except KeyError:
                template, order = layouts[keys] = _compile(keys)
            row = (*values[start:stop], element, kind, exp, flow, id, seq, ts)
            yield template % tuple([
                value if type(value := row[i]) is int
                else text[value] if type(value) is str
                else "null" if value is None
                else _encode(value)  # floats, bools, nested
                for i in order
            ])


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


def _parse_event(record: dict) -> TraceEvent:
    attrs = record.get("attrs")
    if attrs is not None and not isinstance(attrs, dict):
        raise TraceError(f"attrs must be a JSON object, got {type(attrs).__name__}")
    try:
        return TraceEvent.from_dict(record)
    except KeyError as exc:
        raise TraceError(f"event missing field {exc}") from None


def load_trace(path: str) -> tuple[dict, list[TraceEvent]]:
    """Parse a trace file back into ``(meta, events)``."""
    return read_records(path, TRACE_SCHEMA_VERSION, ("event",), TraceError, _parse_event)


def trace_digest(events: list[TraceEvent]) -> str:
    """sha256 over the canonical event serialization — the determinism
    pin for seeded runs (meta counters are excluded so a capacity change
    that retains the same events hashes the same)."""
    digest = hashlib.sha256()
    lines = _event_lines(events)
    separator = ""
    while batch := list(islice(lines, _HASH_BATCH)):
        digest.update((separator + "\n".join(batch)).encode())
        separator = "\n"
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
        attrs = event.attrs
        if attrs:
            args.update(attrs)
        record = {
            "name": event.kind,
            "cat": event.kind.split(".", 1)[0],
            "pid": 1,
            "tid": tids[event.element],
            "ts": event.ts_ns / 1000,
            "args": args,
        }
        wait_ns = (attrs or {}).get("wait_ns")
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
