"""Schema checks for every committed ``BENCH_*.json`` artifact.

The bench files are version-controlled data; a row that loses its seed
(or a file that drifts off the shared schema) silently breaks the
reproducibility story these artifacts exist to tell. Null seeds are
rejected outright — a bench result that cannot say what seed produced
it cannot be reproduced or compared.
"""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.telemetry.benchfmt import SCHEMA_VERSION

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCH_FILES = sorted(REPO_ROOT.glob("BENCH_*.json"))


def load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def test_bench_artifacts_are_committed():
    names = {path.name for path in BENCH_FILES}
    assert "BENCH_fct_grid.json" in names  # this PR's artifact
    assert len(names) >= 7


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_shared_schema(path):
    data = load(path)
    assert data["schema_version"] == SCHEMA_VERSION
    assert path.name == f"BENCH_{data['name']}.json"
    assert isinstance(data["params"], dict)
    assert isinstance(data["metrics"], dict) and data["metrics"]
    # No null seeds: every committed artifact names the seed (or seed
    # set, with a representative top-level value) that produced it.
    assert data["seed"] is not None
    assert isinstance(data["seed"], int)
    for case, row in data["metrics"].items():
        assert isinstance(case, str) and case
        assert isinstance(row, dict) and row


def test_fct_grid_rows_carry_seed_and_grid_coordinates():
    data = load(REPO_ROOT / "BENCH_fct_grid.json")
    assert sorted(data["params"]["seeds"]) == data["params"]["seeds"]
    assert data["seed"] == data["params"]["seeds"][0]
    for label, row in data["metrics"].items():
        # Per-row seed, pinned into the label too.
        assert row["seed"] is not None
        assert label.startswith(f"seed{row['seed']:06d}_")
        # Grid coordinates.
        assert row["transport"] in ("mmt", "tcp", "udp")
        assert row["senders"] >= 1
        assert row["load"] > 0
        assert 0 <= row["mark_threshold"] <= 1
        assert row["symmetric"] in (0, 1)
        # FCT percentiles: present for every row, numeric whenever any
        # flow completed, explicit null when none did.
        for key in ("fct_p50_ns", "fct_p95_ns", "fct_p99_ns"):
            assert key in row
            if row["completed"] > 0:
                assert isinstance(row[key], (int, float))
            else:
                assert row[key] is None
        assert row["completed"] + row["unfinished"] == row["flows"]


def test_fct_grid_covers_every_transport_at_every_depth():
    data = load(REPO_ROOT / "BENCH_fct_grid.json")
    combos = {
        (row["transport"], row["senders"]) for row in data["metrics"].values()
    }
    for transport in ("mmt", "tcp", "udp"):
        for senders in data["params"]["senders"]:
            assert (transport, senders) in combos


def test_every_committed_bench_diffs_cleanly_against_itself():
    """The ``repro report`` provenance gate accepts every committed
    artifact: non-null seed, self-consistent grid coordinates. A file
    this check rejects could never serve as a regression baseline."""
    from repro.obs import diff_bench_files

    for path in BENCH_FILES:
        diff = diff_bench_files(path, path)
        assert diff.ok, f"{path.name} vs itself: {diff.regressions}"
        assert all(row.status == "ok" for row in diff.rows)


def test_report_rejects_seedless_artifact(tmp_path):
    from repro.obs import ReportError, diff_bench_files

    data = load(BENCH_FILES[0])
    data["seed"] = None
    bad = tmp_path / BENCH_FILES[0].name
    bad.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ReportError, match="no seed"):
        diff_bench_files(bad, BENCH_FILES[0])


def test_report_rejects_moved_grid_coordinates(tmp_path):
    from repro.obs import ReportError, diff_bench_files

    grid = REPO_ROOT / "BENCH_fct_grid.json"
    data = load(grid)
    label, row = next(iter(data["metrics"].items()))
    row["senders"] = row["senders"] + 1
    moved = tmp_path / grid.name
    moved.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ReportError, match="grid coordinate"):
        diff_bench_files(moved, grid)


def test_only_a_seeded_bench_writes_its_file(tmp_path):
    """A bench with no seed (A1, A11: inline asserts only) leaves nothing
    at the root for ``test_shared_schema`` to reject."""
    spec = importlib.util.spec_from_file_location(
        "bench_conftest", REPO_ROOT / "benchmarks" / "conftest.py"
    )
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    conftest.result_for("bench_inline").add_wall_time("test_x", 0.5)
    conftest.result_for("bench_seeded").seed = 7
    conftest.pytest_sessionfinish(SimpleNamespace(config=SimpleNamespace(rootpath=tmp_path)))
    assert [path.name for path in tmp_path.iterdir()] == ["BENCH_seeded.json"]
