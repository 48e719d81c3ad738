"""One reader for every JSONL file: snapshots, sampled series, traces.

Each loader turns a malformed file into its own error type with the
file and line in the message — never an ``AttributeError`` or a bare
``JSONDecodeError`` — and the CLI readers exit 1 with that message.
"""

import json
import re

import pytest

from repro.cli import main
from repro.netsim import Simulator
from repro.obs import Sampler, load_series, write_series
from repro.telemetry import MetricsRegistry, TelemetryError, read_snapshot, write_snapshot
from repro.trace import TraceError, Tracer, load_trace, write_trace


def snapshot_file(path):
    registry = MetricsRegistry()
    registry.counter("rx_total", host="dtn2").inc(3)
    registry.gauge("queue_bytes", node="t2").set(9)
    write_snapshot(registry, str(path), meta={"seed": 1})


def series_file(path):
    sampler = Sampler(Simulator(seed=1), every_ns=10)
    sampler.record("queue_bytes", 5, node="u280", port="out")
    sampler.record("sim_pending_events", 2)
    write_series(sampler, path)


def trace_file(path):
    sim = Simulator(seed=1)
    tracer = Tracer(sim)
    tracer.emit("packet.send", "sensor", 7, 0, 1, msg="DATA")
    tracer.emit("link.drop", "wan", 7, 0, 1, reason="random")
    write_trace(tracer, str(path))


LOADERS = {
    "snapshot": (snapshot_file, read_snapshot, TelemetryError),
    "series": (series_file, load_series, ValueError),
    "trace": (trace_file, load_trace, TraceError),
}


def truncated(lines):
    return lines[:-1] + [lines[-1][: len(lines[-1]) // 2]]


def wrong_schema(lines):
    meta = json.loads(lines[0])
    meta["schema_version"] = 999
    return [json.dumps(meta)] + lines[1:]


#: case → (rewrite of the file's lines, what the error says).
CASES = {
    "truncated": (truncated, r":\d+: bad JSON"),
    "non-object": (lambda lines: lines + ["[1, 2]"], r":\d+: not a JSON object"),
    "unknown kind": (lambda lines: lines + ['{"kind": "mystery"}'], r":\d+: unknown kind 'mystery'"),
    "no meta": (lambda lines: lines[1:], r":1: \w+ record before the meta record"),
    "wrong schema": (wrong_schema, r":1: schema_version 999, expected 1"),
}


def corrupted(tmp_path, loader, case):
    write, _load, _error = LOADERS[loader]
    path = tmp_path / f"{loader}.jsonl"
    write(path)
    rewrite, _message = CASES[case]
    lines = rewrite(path.read_text().splitlines())
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_malformed_file_raises_the_loaders_error(tmp_path, loader, case):
    _write, load, error = LOADERS[loader]
    path = corrupted(tmp_path, loader, case)
    with pytest.raises(error, match=re.escape(str(path)) + CASES[case][1]):
        load(str(path))


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("command,loader", [
    (["telemetry"], "snapshot"), (["trace", "--input"], "trace"),
])
def test_cli_readers_exit_1_with_a_message(tmp_path, capsys, command, loader, case):
    path = corrupted(tmp_path, loader, case)
    assert main([*command, str(path)]) == 1
    assert f"error: {path}" in capsys.readouterr().err


@pytest.mark.parametrize("attrs,kind", [([1, 2], "list"), (5, "int"), ("ab", "str")])
def test_trace_attrs_must_be_an_object(tmp_path, capsys, attrs, kind):
    path = tmp_path / "trace.jsonl"
    trace_file(path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[2])
    record["attrs"] = attrs
    lines[2] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    message = f"{path}:3: attrs must be a JSON object, got {kind}"
    with pytest.raises(TraceError, match=re.escape(message)):
        load_trace(str(path))
    assert main(["trace", "--input", str(path)]) == 1
    assert f"error: {message}" in capsys.readouterr().err


def test_trace_event_missing_a_field_names_its_line(tmp_path):
    path = tmp_path / "trace.jsonl"
    trace_file(path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    del record["ts"]
    lines[1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceError, match=re.escape(f"{path}:2: event missing field 'ts'")):
        load_trace(str(path))
