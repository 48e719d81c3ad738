"""Snapshot export/import and the shared benchmark-result schema."""

import json

import pytest

from repro.telemetry import (
    BenchResult,
    MetricsRegistry,
    TelemetryError,
    load_bench_result,
    read_snapshot,
    write_snapshot,
)


def populated_registry():
    reg = MetricsRegistry()
    reg.counter("rx_total", host="dtn2").inc(42)
    reg.gauge("queue_bytes", node="t2").set(1500)
    reg.histogram("lat_ns", buckets=(10, 100, 1000), host="dtn2").observe_many(
        [5, 50, 500, 5000]
    )
    return reg


def test_snapshot_round_trip(tmp_path):
    path = str(tmp_path / "snap.jsonl")
    written = write_snapshot(populated_registry(), path, meta={"seed": 7})
    assert written == 4  # 1 meta + 3 metrics

    snap = read_snapshot(path)
    assert snap.meta["seed"] == 7
    assert snap.meta["schema_version"] == 1
    assert snap.value("rx_total", host="dtn2") == 42
    assert snap.value("queue_bytes", node="t2") == 1500
    assert snap.value("missing") is None

    hist = snap.get("lat_ns", host="dtn2")
    assert hist["count"] == 4
    assert hist["overflow"] == 1
    assert snap.quantile("lat_ns", 0.5, host="dtn2") == 100
    assert snap.quantile("lat_ns", 1.0, host="dtn2") == 5000  # observed max
    assert snap.quantile("rx_total", 0.5, host="dtn2") is None  # not a histogram


def test_read_rejects_bad_lines(tmp_path):
    meta = '{"kind": "meta", "schema_version": 1}\n'
    bad_json = tmp_path / "bad.jsonl"
    bad_json.write_text(meta + "{not json\n")
    with pytest.raises(TelemetryError, match="bad\\.jsonl:2: bad JSON"):
        read_snapshot(str(bad_json))

    bad_kind = tmp_path / "kind.jsonl"
    bad_kind.write_text(meta + '{"kind": "summary"}\n')
    with pytest.raises(TelemetryError, match="unknown kind 'summary'"):
        read_snapshot(str(bad_kind))

    twice = tmp_path / "twice.jsonl"
    twice.write_text(meta + meta)
    with pytest.raises(TelemetryError, match="twice\\.jsonl:2: repeated meta"):
        read_snapshot(str(twice))

    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n")
    with pytest.raises(TelemetryError, match="no meta record"):
        read_snapshot(str(empty))


# -- benchmark-result schema -------------------------------------------------


def test_bench_result_round_trip(tmp_path):
    result = BenchResult(name="fig4_pilot", seed=31)
    result.params = {"messages": 800}
    result.record("clean", delivered=800, p99_latency_ns=71_479)
    result.record("clean", naks=0)  # merges into the same case
    result.add_wall_time("test_run", 1.25)

    path = result.write(tmp_path)
    assert path.name == "BENCH_fig4_pilot.json"
    data = json.loads(path.read_text())
    assert data["schema_version"] == 1
    assert data["metrics"]["clean"] == {
        "delivered": 800, "p99_latency_ns": 71_479, "naks": 0,
    }
    assert data["metrics"]["test_run"]["wall_time_s"] == 1.25
    assert data["wall_time_s"] == 1.25

    loaded = load_bench_result(path)
    assert loaded == result
