"""The ``repro`` console entry point."""

import json

import pytest

from repro.cli import build_parser, main


def test_catalog_prints_table1(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    for name in ("CMS L1 Trigger", "DUNE", "ECCE detector", "Mu2e", "Vera Rubin"):
        assert name in out
    assert "63.0 Tbps" in out
    assert "400.0 Gbps" in out


def test_header_lists_every_mode(capsys):
    assert main(["header"]) == 0
    out = capsys.readouterr().out
    for mode in ("identify", "age-recover", "deliver-check", "paced", "fanout"):
        assert mode in out
    assert " 8 " in out  # the bare core header size


def test_pilot_small_run(capsys):
    code = main([
        "pilot", "--messages", "50", "--wan-ms", "1",
        "--loss", "0.02", "--interval-us", "5",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "delivered" in out
    assert "complete" in out
    assert "True" in out


def test_compare_small_run(capsys):
    assert main([
        "compare", "--messages", "100", "--wan-ms", "2", "--loss", "0",
        "--interval-us", "64",
    ]) == 0
    out = capsys.readouterr().out
    assert "today (UDP+TCP)" in out
    assert "multi-modal (MMT)" in out


def test_supernova_run(capsys):
    assert main(["supernova"]) == 0
    out = capsys.readouterr().out
    assert "today" in out and "mmt" in out


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["pilot", "--flows", "0"], "--flows"),
        (["pilot", "--receivers", "2", "--flows", "0"], "--flows"),
        (["pilot", "--receivers", "0"], "--receivers"),
        (["pilot", "--receivers", "-3"], "--receivers"),
        (["pilot", "--messages", "0"], "--messages"),
        (["trace", "--flows", "0"], "--flows"),
        (["fleet", "--nodes", "0"], "--nodes"),
        (["fleet", "--flows", "-1"], "--flows"),
        (["chaos", "--messages", "0"], "--messages"),
        (["pilot", "--flows", "two"], "--flows"),
        (["chaos", "--jobs", "0"], "--jobs"),
        (["chaos", "--jobs", "-2"], "--jobs"),
        (["incast", "--jobs", "0"], "--jobs"),
        (["pilot", "--size", "-5"], "--size"),
        (["pilot", "--loss", "2"], "--loss"),
        (["pilot", "--interval-us", "-1"], "--interval-us"),
        (["pilot", "--wan-ms", "-1"], "--wan-ms"),
        (["trace", "--capacity", "0"], "--capacity"),
        (["fleet", "--window", "0"], "--window"),
        (["soak", "--duration-s", "0"], "--duration-s"),
        (["pilot", "--age-budget-ms", "-1"], "--age-budget-ms"),
        (["pilot", "--deadline-ms", "-1"], "--deadline-ms"),
        (["fleet", "--duration-ms", "-1"], "--duration-ms"),
        (["trace", "--dump", "--limit", "-3"], "--limit"),
    ],
)
def test_counts_below_one_are_usage_errors(capsys, argv, flag):
    # One checked argparse type per range: exit 2 naming the flag — never
    # a ValueError traceback, never a silent fall-back to the 1-DTN pilot.
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err
    assert "must be " in err or "invalid int value" in err


@pytest.mark.parametrize("index", ["7", "-1"])
def test_fleet_crash_node_out_of_range_is_a_usage_error(capsys, index):
    # Python would take -1 as "the last node" and 7 as an IndexError
    # mid-run; both are usage errors before anything is built.
    assert main(["fleet", "--nodes", "2", "--flows", "2", "--crash-node", index]) == 2
    assert f"crash_node {index} out of range (valid: 0..1)" in capsys.readouterr().err


def test_pilot_splits_messages_over_flows(capsys):
    # 10 messages over 3 flows: 4 + 3 + 3, via the testbed's send_split.
    assert main(["pilot", "--messages", "10", "--flows", "3", "--wan-ms", "1"]) == 0
    out = capsys.readouterr().out
    assert "Per-flow breakdown (3 concurrent flows)" in out
    table = out[out.index("Per-flow breakdown"):].splitlines()
    sent = {cells[0]: cells[1] for cells in (line.split() for line in table) if len(cells) >= 7}
    assert (sent.get("0"), sent.get("1"), sent.get("2")) == ("4", "3", "3")


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_command_required():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_pilot_telemetry_snapshot_and_render(capsys, tmp_path):
    snapshot = tmp_path / "pilot.jsonl"
    code = main([
        "pilot", "--messages", "40", "--wan-ms", "1", "--loss", "0.02",
        "--interval-us", "5", "--telemetry", str(snapshot),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert f"-> {snapshot}" in out
    assert snapshot.exists()

    assert main(["telemetry", str(snapshot)]) == 0
    rendered = capsys.readouterr().out
    assert "Histograms" in rendered and "Counters" in rendered
    assert "int_segment_latency_ns" in rendered
    assert "alveo-u280->tofino2" in rendered
    assert "queue_peak_bytes" in rendered
    assert "scenario=pilot" in rendered


def test_telemetry_all_flag_includes_zero_metrics(capsys, tmp_path):
    snapshot = tmp_path / "pilot.jsonl"
    main([
        "pilot", "--messages", "10", "--wan-ms", "1", "--interval-us", "5",
        "--telemetry", str(snapshot),
    ])
    capsys.readouterr()
    main(["telemetry", str(snapshot)])
    trimmed = capsys.readouterr().out
    main(["telemetry", str(snapshot), "--all"])
    full = capsys.readouterr().out
    assert len(full.splitlines()) > len(trimmed.splitlines())
    # A counter that never fires in a clean run only shows under --all.
    assert "mmt_rx_naks_sent" not in trimmed
    assert "mmt_rx_naks_sent" in full


def test_pilot_trace_writes_jsonl(capsys, tmp_path):
    trace_file = tmp_path / "pilot_trace.jsonl"
    code = main([
        "pilot", "--messages", "20", "--wan-ms", "1", "--interval-us", "5",
        "--trace", str(trace_file),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert f"-> {trace_file}" in out
    from repro.trace import load_trace

    meta, events = load_trace(str(trace_file))
    assert meta["scenario"] == "pilot"
    assert meta["events_emitted"] == len(events) + meta["events_evicted"]
    assert {"packet.send", "element.egress", "packet.deliver"} <= {e.kind for e in events}


def test_trace_run_summary_and_digest(capsys):
    assert main(["trace", "--messages", "20", "--wan-ms", "1"]) == 0
    out = capsys.readouterr().out
    assert "spans emitted" in out
    assert "digest: sha256:" in out


def test_trace_timeline_root_cause(capsys):
    # Experiment 42, slice 0 -> experiment_id 42 << 8 = 10752.
    code = main([
        "trace", "--messages", "20", "--wan-ms", "1",
        "--timeline", "10752:0:3",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "packet experiment=10752 flow=0 seq=3" in out
    assert "mode transition" in out
    assert "delivered" in out


def test_trace_anomalies_listing(capsys):
    code = main([
        "trace", "--messages", "40", "--flows", "2", "--wan-ms", "1",
        "--loss", "0.05", "--seed", "7", "--anomalies",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Anomalous packets" in out or "no anomalous packets" in out


def test_trace_chrome_export_and_reload(capsys, tmp_path):
    chrome = tmp_path / "trace.json"
    out_file = tmp_path / "trace.jsonl"
    code = main([
        "trace", "--messages", "20", "--wan-ms", "1",
        "--out", str(out_file), "--chrome", str(chrome),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Perfetto" in out

    import json

    payload = json.loads(chrome.read_text())
    names = {r["args"]["name"] for r in payload["traceEvents"]
             if r["name"] == "thread_name"}
    assert {"alveo-u280", "tofino2", "alveo-u55c"} <= names

    # Round trip: the written file loads and filters by identity.
    code = main(["trace", "--input", str(out_file), "--timeline", "10752:0:1"])
    assert code == 0
    assert "packet experiment=10752 flow=0 seq=1" in capsys.readouterr().out


def test_trace_verify_int(capsys):
    code = main([
        "trace", "--messages", "20", "--wan-ms", "1", "--verify-int",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "INT consistency" in out
    assert "0 mismatches" in out


def test_trace_verify_int_rejects_input_file(capsys, tmp_path):
    bogus = tmp_path / "x.jsonl"
    bogus.write_text("{}\n")
    code = main(["trace", "--input", str(bogus), "--verify-int"])
    assert code == 2
    assert "--verify-int" in capsys.readouterr().err


def test_trace_bad_timeline_spec(capsys):
    code = main(["trace", "--messages", "4", "--wan-ms", "1",
                 "--timeline", "nope"])
    assert code == 2
    assert "EXPERIMENT:FLOW:SEQ" in capsys.readouterr().err


def test_trace_missing_input_file(capsys):
    code = main(["trace", "--input", "/nonexistent/trace.jsonl"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_incast_small_grid(capsys, tmp_path):
    code = main([
        "incast", "--grid", "small", "--seed", "7",
        "--out-dir", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Incast head-to-head" in out
    assert "seed000007_mmt_n016_k020_l150_sym" in out
    assert "BENCH_fct_grid.json" in out
    written = json.loads((tmp_path / "BENCH_fct_grid.json").read_text())
    assert written["seed"] == 7
    assert len(written["metrics"]) == 6  # 3 transports x N in {4, 16}


@pytest.mark.parametrize(
    "field,value,why", [("completed", 15, "15/16 flows done"), ("dropped", 3, "3 drops")]
)
def test_incast_gate_fails_a_deepest_fan_in_mmt_cell(
    capsys, tmp_path, monkeypatch, field, value, why
):
    # Completion and K <= 0.2 drop-freedom are gated, not only the p99 tail.
    import repro.integration.incast as incast

    def spoiled(configs, **kwargs):
        labeled = real(configs, **kwargs)
        dict(labeled)["seed000007_mmt_n016_k020_l150_sym"][field] = value
        return labeled

    real = incast.run_grid
    monkeypatch.setattr(incast, "run_grid", spoiled)
    assert main(["incast", "--grid", "small", "--seed", "7", "--out-dir", str(tmp_path)]) == 1
    assert f"FCT GATE FAILED at seed000007_mmt_n016_k020_l150_sym: {why}" in capsys.readouterr().err


def test_incast_jobs_do_not_change_the_artifact(capsys, tmp_path):
    main(["incast", "--grid", "small", "--seed", "7",
          "--out-dir", str(tmp_path / "j1")])
    main(["incast", "--grid", "small", "--seed", "7", "--jobs", "2",
          "--out-dir", str(tmp_path / "j2")])
    capsys.readouterr()
    first = (tmp_path / "j1" / "BENCH_fct_grid.json").read_bytes()
    second = (tmp_path / "j2" / "BENCH_fct_grid.json").read_bytes()
    assert first == second


# -- PR 10: observability flags ------------------------------------------------


def test_pilot_sampled_run_writes_series_and_chrome(capsys, tmp_path):
    from repro.telemetry import read_snapshot

    series, chrome = tmp_path / "series.jsonl", tmp_path / "trace.json"
    snapshot = tmp_path / "snap.jsonl"
    code = main([
        "pilot", "--messages", "50", "--interval-us", "5",
        "--sample-every", "100", "--series", str(series), "--chrome", str(chrome),
        "--telemetry", str(snapshot),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "sampler:" in out
    lines = series.read_text().splitlines()
    meta = json.loads(lines[0])
    assert meta["kind"] == "meta" and meta["schema_version"] == 1
    assert meta["scenario"] == "pilot" and meta["seed"] is not None
    records = [json.loads(line) for line in lines[1:]]
    assert all(r["kind"] == "series" for r in records)
    assert all(isinstance(v, int) for r in records for _t, v in r["points"])
    sampled = {r["metric"] for r in records}
    assert {"queue_bytes", "link_current_rate_bps", "retx_buffer_bytes",
            "sim_pending_events"} <= sampled
    # One catalogue: every sampled metric is also a snapshot record.
    assert sampled <= {m["name"] for m in read_snapshot(str(snapshot)).metrics}
    trace = json.loads(chrome.read_text())["traceEvents"]
    counters = [e for e in trace if e.get("ph") == "C"]
    assert {e["pid"] for e in counters} == {1}
    assert any(e.get("ph") not in ("C", "M") for e in trace)  # beside the spans


def test_pilot_slo_violation_fails_run_and_writes_health(capsys, tmp_path):
    health = tmp_path / "health.json"
    code = main([
        "pilot", "--messages", "50", "--interval-us", "5",
        "--sample-every", "100",
        "--slo", "link_current_rate_bps max <= 1",
        "--health", str(health), "--chrome", str(tmp_path / "trace.json"),
    ])
    assert code == 1
    assert "VIOLATION" in capsys.readouterr().out
    payload = json.loads(health.read_text())
    assert payload["ok"] is False and payload["violations"] > 0
    assert payload["events"][0]["metric"] == "link_current_rate_bps"
    trace = json.loads((tmp_path / "trace.json").read_text())["traceEvents"]
    assert any(e.get("name") == "slo.violation" for e in trace)  # pinned


def test_pilot_obs_flags_require_sample_every(capsys, tmp_path):
    for flag, value in (
        ("--series", str(tmp_path / "s.jsonl")),
        ("--chrome", str(tmp_path / "c.json")),
        ("--slo", "queue_bytes max <= 1"),
    ):
        code = main(["pilot", "--messages", "10", flag, value])
        assert code == 2
        assert "--sample-every" in capsys.readouterr().err


def test_pilot_farm_sampled_run(capsys, tmp_path):
    series = tmp_path / "farm.jsonl"
    code = main([
        "pilot", "--receivers", "4", "--messages", "64",
        "--interval-us", "5", "--sample-every", "500",
        "--series", str(series),
        "--slo", "fleet_node_fill_pct max <= 100",
    ])
    assert code == 0
    meta = json.loads(series.read_text().splitlines()[0])
    assert meta["scenario"] == "pilot-farm"
    metrics = {
        json.loads(l)["metric"] for l in series.read_text().splitlines()[1:]
    }
    assert "fleet_fill_skew" in metrics


def test_incast_jobs_print_heartbeats(capsys, tmp_path):
    main(["incast", "--grid", "small", "--seed", "7", "--jobs", "2",
          "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert "[incast 1/6]" in err
    assert "[incast 6/6]" in err
