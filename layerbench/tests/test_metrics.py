import json
from pathlib import Path

from layerbench import metrics
from layerbench.fold import LAYERS
from layerbench.worker import Checks, SpanLog

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_exactly_the_metrics_the_worker_emits():
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]] == [
        tuple(row) for row in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == metrics.per_layer()


def test_benchmark_json_names_the_four_workloads():
    from layerbench.workloads import WORKLOADS

    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert SPEC["paths"] == ["layerbench"]


def test_contract_limits_hold():
    assert len(LAYERS) == 18
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in SPEC["end_to_end"])
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(len(name) <= 64 for name in names)


def test_counter_values_cover_every_counter_metric():
    values = metrics.counter_values({"link_delivered": 12, "retransmissions": 3}, 6, 96)
    assert list(values) == [name for name, _unit, _better in metrics.COUNTERS]
    assert values["netsim.link.delivered_per_msg"] == 2.0
    assert values["core.endpoint.retx_per_kmsg"] == 500.0
    assert values["netsim.engine.events"] == 96


def test_spans_nest_and_share_the_rep_id():
    spans = SpanLog()
    spans.rep = "1"
    with spans.span("run") as run:
        with spans.span("inner") as inner:
            pass
    spans.add("build.fabric", 1.0, 2.0, run["id"])
    assert inner["parent"] == run["id"] and run["parent"] is None
    assert [s["rep"] for s in spans.spans] == ["1", "1", "1"]
    assert run["start_s"] <= inner["start_s"] <= inner["end_s"] <= run["end_s"]
    assert spans.spans[2] == {"id": 2, "rep": "1", "name": "build.fabric",
                              "parent": run["id"], "start_s": 1.0, "end_s": 2.0}


class FakeRep:
    def __init__(self, checks):
        self.checks = checks


def test_checks_keep_the_first_reps_passes_and_every_failure():
    checks = Checks()
    checks.add_rep("1", FakeRep([("complete", True, "800/800")]))
    checks.add_rep("2", FakeRep([("complete", True, "800/800")]))
    assert [row["name"] for row in checks.rows] == ["rep 1: complete"] and checks.ok
    checks.add_rep("3", FakeRep([("complete", False, "799/800")]))
    assert not checks.ok and checks.rows[-1]["name"] == "rep 3: complete"
