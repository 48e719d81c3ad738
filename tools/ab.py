"""Generated A/B evidence: a parent commit against a change, per workload and seed.

    python3 tools/ab.py PARENT --workload pilot_clean --seed 7
    python3 tools/ab.py 08170a0^ --change 08170a0 --workload incast_n16 --seed 7 13
    python3 tools/ab.py PARENT --workload pilot_clean fleet_64x128 --seed 7

Each (workload, seed) of the given workloads and seeds is one comparison.
Both sides (the change: ``--change REV``, else this tree) run ten pairs
of ``layerbench.run --trace 0``, one process at a time, the parent first
on even pairs; then one profiled rep each, folded with ``layerbench.fold``
per code object: generated methods are labelled by their class, as
``tests/dataplane/test_layer_counts.py``'s ``profile_stats`` (the one copy,
which both sides run) labels them.
Writes ``ab_<workload>_s<seed>.json`` and ``.md`` per comparison to
``--out``, and prints each table as it is done: median
(IQR) and pairs better per end-to-end metric, the claim's verdict (>= 9
of 10 pairs and a median gap over the parent's IQR), ``compare.classify``
for the rest, per-layer calls/msg and traced self µs/msg (the profiled
rep's, so inflated by the profiler alike on both sides) and the largest
function call deltas.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import pstats
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from layerbench import compare, fold  # noqa: E402

PAIRS, WINS_NEEDED = 10, 9  # fixed by the acceptance rule: a gain wins 9 of 10 pairs
CLAIM = "msgs_per_s"  # the metric a perf change claims to improve
TOP_FUNCTIONS = 5  # largest function call deltas shown per moved layer
FOREIGN = "(not src/repro)"  # where builtins and stdlib functions are listed

#: The per-code-object profile fold both sides use.
LAYER_COUNTS = ROOT / "tests" / "dataplane" / "test_layer_counts.py"

#: Run in a side's tree: a warm-up rep (fills memo tables), a profiled one,
#: dumped as ``pstats`` data by ``LAYER_COUNTS``'s ``profile_stats``.
PROFILE_REP = """
import cProfile, importlib.util, marshal, sys
sys.path[:0] = ["src", "."]
from layerbench import worker, workloads
workload = workloads.WORKLOADS[sys.argv[1]]
worker.run_rep(workload, int(sys.argv[2]), worker.SpanLog(), "warm")
profiler = cProfile.Profile()
rep, _ = worker.run_rep(workload, int(sys.argv[2]), worker.SpanLog(), "ab", profiler)
spec = importlib.util.spec_from_file_location("layer_counts", sys.argv[4])
layer_counts = importlib.util.module_from_spec(spec)
spec.loader.exec_module(layer_counts)
with open(sys.argv[3], "wb") as dump:
    marshal.dump(layer_counts.profile_stats(profiler), dump)
print(rep.delivered)
"""


def extract(rev: str, into: Path) -> Path:
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True)
    tree = into / rev.replace("/", "_").replace("^", "_parent")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(tree, filter="data")
    return tree


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, "-m", "layerbench.run", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE, text=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {**{name: m["value"] for name, m in result["metrics"].items()},
            "failed_share": result["failed"] / result["attempted"],
            "correct": result["correct"] and done.returncode == 0}


def qualnames(path: str) -> list[tuple[int, int, str]]:
    """(first line, last line, qualified name) of every def and class."""
    spans = []
    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                spans.append((first, child.end_lineno, name))
                name += "."
            visit(child, name)

    visit(ast.parse(Path(path).read_text()), "")
    return spans


def profile(tree: Path, workload: str, seed: int, scratch: Path) -> dict:
    """Calls/msg and traced self µs/msg of one profiled rep, per layer,
    and calls/msg per function (by layer)."""
    dump = scratch / f"{tree.name}.prof"
    command = [sys.executable, "-c", PROFILE_REP, workload, str(seed), str(dump), str(LAYER_COUNTS)]
    done = subprocess.run(command, cwd=tree, check=True, stdout=subprocess.PIPE, text=True,
                          env={**os.environ, "PYTHONHASHSEED": "0"})  # as layerbench.run's workers
    messages = int(done.stdout.split()[-1])
    stats = pstats.Stats(str(dump)).stats
    package = tree / "src" / "repro"
    file_layers = fold.map_source_tree(package)
    folded = fold.fold_profile(stats, file_layers)
    layers = {layer: row["calls"] / messages for layer, row in folded.items()}
    self_us = {layer: row["self_s"] * 1e6 / messages for layer, row in folded.items()}
    functions: dict[str, dict[str, float]] = {layer: {} for layer in (*fold.LAYERS, FOREIGN)}
    defs = {path: qualnames(path) for path in file_layers}
    for (path, line, name), row in stats.items():
        if path in file_layers:
            inside = [(first, q) for first, last, q in defs[path]
                      if first <= line <= last and "." not in name]  # else Class.method
            owner = max(inside)[1] if inside else ""
            if owner.rsplit(".", 1)[-1] != name:  # generated, lambda, comprehension, module body
                owner = f"{owner}.{name}".lstrip(".")
            by_name = functions[file_layers[path]]
            key = f"{owner} ({Path(path).relative_to(package).as_posix()})"
        else:
            by_name = functions[FOREIGN]
            key = f"{name} ({Path(path).name if path != '~' else 'builtin'})"
        by_name[key] = by_name.get(key, 0.0) + row[1] / messages
    return {"messages": messages, "layers": layers, "self_us": self_us, "functions": functions}


def verdicts(pairs: list[dict], spec: dict) -> list[dict]:
    rows = []
    for metric in [*spec["end_to_end"], {"name": "failed_share", "better": "lower", "bound": 0}]:
        name, better = metric["name"], metric["better"]
        base = [p["base"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        row = {"metric": name}
        for side, samples in (("base", base), ("change", change)):
            q1, _q2, q3 = quantiles(samples, n=4, method="inclusive")
            row[side], row[side + "_iqr"] = median(samples), q3 - q1
        a, b = row["base"], row["change"]
        sign = 1 if better == "lower" else -1
        row["pairs_better"] = sum(sign * (c - p) < 0 for p, c in zip(base, change))
        if a == 0:
            row["status"] = "ok" if b == 0 else "regressed"
        else:
            row["status"] = compare.classify(name, better, metric["bound"], a, b, base, change)
        if name == CLAIM and row["status"] != "regressed":
            gain = row["pairs_better"] >= WINS_NEEDED and sign * (a - b) > row["base_iqr"]
            row["status"] = "gain" if gain else "no gain"
        rows.append(row)
    return rows


def render(args, workload: str, seed: int, rows: list[dict], sides: dict) -> str:
    lines = [f"`python3 tools/ab.py {args.parent} --change {args.change or 'worktree'} "
             f"--workload {workload} --seed {seed}`", "",
             "| metric | parent median (IQR) | change median (IQR) | pairs better | verdict |",
             "|---|---|---|---|---|"]
    lines += [f"| {r['metric']}{' (claim)' if r['metric'] == CLAIM else ''} | "
              f"{r['base']:.4g} ({r['base_iqr']:.3g}) | {r['change']:.4g} ({r['change_iqr']:.3g})"
              f" | {r['pairs_better']}/{PAIRS} | {r['status']} |" for r in rows]
    base, change = sides["base"], sides["change"]
    moved = [layer for layer in fold.LAYERS
             if round(base["layers"][layer], 3) != round(change["layers"][layer], 3)]
    # Every layer either side calls, with where its traced self time went.
    active = [layer for layer in fold.LAYERS if base["layers"][layer] or change["layers"][layer]]
    lines += ["", "| layer | parent calls/msg | change calls/msg | delta | "
              "parent self µs/msg | change self µs/msg | delta |", "|---" * 7 + "|"]
    lines += [f"| {layer} | {base['layers'][layer]:.3f} | {change['layers'][layer]:.3f} | "
              f"{change['layers'][layer] - base['layers'][layer]:+.3f} | "
              f"{base['self_us'][layer]:.2f} | {change['self_us'][layer]:.2f} | "
              f"{change['self_us'][layer] - base['self_us'][layer]:+.2f} |" for layer in active]
    lines += ["", "| layer | function (file) | delta calls/msg |", "|---|---|---|"]
    for layer in (*moved, FOREIGN):
        a, b = base["functions"][layer], change["functions"][layer]
        deltas = sorted(((b.get(n, 0.0) - a.get(n, 0.0), n) for n in set(a) | set(b)),
                        key=lambda d: (-abs(d[0]), d[1]))
        lines += [f"| {layer} | {name} | {delta:+.3f} |"
                  for delta, name in deltas[:TOP_FUNCTIONS] if round(delta, 3)]
    return "\n".join(lines) + "\n"


def compare_one(args, spec: dict, trees: dict, workload: str, seed: int,
                scratch: Path) -> bool:
    """Ten pairs and a profiled rep per side on one (workload, seed); writes
    and prints its table. True when every run was correct and nothing regressed."""
    pairs = []
    for index in range(PAIRS):
        order = ("base", "change") if index % 2 == 0 else ("change", "base")
        pair = {side: run_once(trees[side], workload, seed, spec["run_seconds"])
                for side in order}
        print(f"{workload} s{seed} pair {index + 1}/{PAIRS}: " + ", ".join(
            f"{side} {pair[side][CLAIM]:.6g}" for side in order), flush=True)
        pairs.append(pair)
    sides = {side: profile(tree, workload, seed, scratch) for side, tree in trees.items()}
    rows = verdicts(pairs, spec)
    stem = args.out / f"ab_{workload}_s{seed}"
    record = {**vars(args), "workload": workload, "seed": seed, "out": str(args.out),
              "rows": rows, "pairs": pairs, "profiles": sides}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    stem.with_suffix(".md").write_text(table := render(args, workload, seed, rows, sides))
    print(table, flush=True)
    correct = all(p[side]["correct"] for p in pairs for side in p)
    return correct and not any(r["status"] == "regressed" for r in rows)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("--change")  # default: this working tree
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seed", type=int, nargs="+", required=True)
    parser.add_argument("--out", type=Path, default=Path.cwd())
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="ab-", dir=args.out) as scratch:
        trees = {"base": extract(args.parent, Path(scratch)),
                 "change": extract(args.change, Path(scratch)) if args.change else ROOT}
        passed = [compare_one(args, spec, trees, workload, seed, Path(scratch))
                  for workload in args.workload for seed in args.seed]
    return 0 if all(passed) else 1


if __name__ == "__main__":
    raise SystemExit(main())
