"""``tools/ab.py`` runs one comparison per (workload, seed) of one call.

The layerbench runs and the profiled rep are replaced by fakes, so this
checks only the iteration, the files written and the exit status.
"""

import importlib.util
import json
from pathlib import Path

from layerbench import fold

ROOT = Path(__file__).resolve().parent.parent


def load_ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_workload_and_seed_gets_its_own_table(tmp_path, monkeypatch):
    ab = load_ab()
    metrics = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    runs = []

    def run_once(tree, workload, seed, seconds):
        runs.append((tree, workload, seed))
        faster = 1.5 if tree == ab.ROOT else 1.0  # the change: this tree
        return {**{name: 100.0 + len(runs) for name in metrics},
                "msgs_per_s": faster * (100.0 + len(runs) % 3),
                "failed_share": 0.0, "correct": True}

    def profile(tree, workload, seed, scratch):
        self_us = 2.0 if tree == ab.ROOT else 3.0
        return {"messages": 1, "layers": {layer: 1.0 for layer in fold.LAYERS},
                "self_us": {layer: self_us for layer in fold.LAYERS},
                "functions": {layer: {} for layer in (*fold.LAYERS, ab.FOREIGN)}}

    monkeypatch.setattr(ab, "extract", lambda rev, into: into / "base")
    monkeypatch.setattr(ab, "run_once", run_once)
    monkeypatch.setattr(ab, "profile", profile)
    status = ab.main(["HEAD^", "--workload", "pilot_clean", "incast_n16",
                      "--seed", "7", "13", "--out", str(tmp_path)])
    assert status == 0
    assert len(runs) == 4 * 2 * ab.PAIRS
    assert [run[1:] for run in runs[::2 * ab.PAIRS]] == [
        ("pilot_clean", 7), ("pilot_clean", 13), ("incast_n16", 7), ("incast_n16", 13)]
    for workload in ("pilot_clean", "incast_n16"):
        for seed in (7, 13):
            record = json.loads((tmp_path / f"ab_{workload}_s{seed}.json").read_text())
            assert (record["workload"], record["seed"]) == (workload, seed)
            table = (tmp_path / f"ab_{workload}_s{seed}.md").read_text()
            assert table.startswith(f"`python3 tools/ab.py HEAD^ --change worktree "
                                    f"--workload {workload} --seed {seed}`")
            assert "| msgs_per_s (claim) |" in table and "| gain |" in table
            # Every layer lists its traced self time beside its calls.
            assert "| parent self µs/msg | change self µs/msg | delta |" in table
            assert "| netsim.engine | 1.000 | 1.000 | +0.000 | 3.00 | 2.00 | -1.00 |" in table
