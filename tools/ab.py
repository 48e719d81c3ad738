"""Generated A/B evidence: a parent commit against a change, on one workload.

    python3 tools/ab.py PARENT --workload pilot_clean --seed 7
    python3 tools/ab.py 08170a0^ --change 08170a0 --workload incast_n16 --seed 7

Both sides (the change: ``--change REV``, else this tree) run ten pairs
of ``layerbench.run --trace 0``, one process at a time, the parent first
on even pairs; then one profiled rep each, folded with ``layerbench.fold``.
Writes ``ab_<workload>_s<seed>.json`` and ``.md`` to ``--out``: median
(IQR) and pairs better per end-to-end metric, the claim's verdict (>= 9
of 10 pairs and a median gap over the parent's IQR), ``compare.classify``
for the rest, per-layer calls/msg and the largest function call deltas.
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

#: Run in a side's tree: a warm-up rep (fills memo tables), a profiled one.
PROFILE_REP = """
import cProfile, sys
sys.path[:0] = ["src", "."]
from layerbench import worker, workloads
workload = workloads.WORKLOADS[sys.argv[1]]
worker.run_rep(workload, int(sys.argv[2]), worker.SpanLog(), "warm")
profiler = cProfile.Profile()
rep, _ = worker.run_rep(workload, int(sys.argv[2]), worker.SpanLog(), "ab", profiler)
profiler.dump_stats(sys.argv[3])
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
    """Calls/msg of one profiled rep, per layer and per function (by layer)."""
    dump = scratch / f"{tree.name}.prof"
    done = subprocess.run([sys.executable, "-c", PROFILE_REP, workload, str(seed), str(dump)],
                          cwd=tree, check=True, stdout=subprocess.PIPE, text=True,
                          env={**os.environ, "PYTHONHASHSEED": "0"})  # as layerbench.run's workers
    messages = int(done.stdout.split()[-1])
    stats = pstats.Stats(str(dump)).stats
    package = tree / "src" / "repro"
    file_layers = fold.map_source_tree(package)
    layers = {layer: row["calls"] / messages
              for layer, row in fold.fold_profile(stats, file_layers).items()}
    functions: dict[str, dict[str, float]] = {layer: {} for layer in (*fold.LAYERS, FOREIGN)}
    defs = {path: qualnames(path) for path in file_layers}
    for (path, line, name), row in stats.items():
        if path in file_layers:
            inside = [(first, q) for first, last, q in defs[path] if first <= line <= last]
            owner = max(inside)[1] if inside else ""
            if owner.rsplit(".", 1)[-1] != name:  # a lambda, comprehension or module body
                owner = f"{owner}.{name}".lstrip(".")
            by_name = functions[file_layers[path]]
            key = f"{owner} ({Path(path).relative_to(package).as_posix()})"
        else:
            by_name = functions[FOREIGN]
            key = f"{name} ({Path(path).name if path != '~' else 'builtin'})"
        by_name[key] = by_name.get(key, 0.0) + row[1] / messages
    return {"messages": messages, "layers": layers, "functions": functions}


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


def render(args, rows: list[dict], sides: dict) -> str:
    lines = [f"`python3 tools/ab.py {args.parent} --change {args.change or 'worktree'} "
             f"--workload {args.workload} --seed {args.seed}`", "",
             "| metric | parent median (IQR) | change median (IQR) | pairs better | verdict |",
             "|---|---|---|---|---|"]
    lines += [f"| {r['metric']}{' (claim)' if r['metric'] == CLAIM else ''} | "
              f"{r['base']:.4g} ({r['base_iqr']:.3g}) | {r['change']:.4g} ({r['change_iqr']:.3g})"
              f" | {r['pairs_better']}/{PAIRS} | {r['status']} |" for r in rows]
    base, change = sides["base"], sides["change"]
    moved = [layer for layer in fold.LAYERS
             if round(base["layers"][layer], 3) != round(change["layers"][layer], 3)]
    lines += ["", "| layer | parent calls/msg | change calls/msg | delta |", "|---|---|---|---|"]
    lines += [f"| {layer} | {base['layers'][layer]:.3f} | {change['layers'][layer]:.3f} | "
              f"{change['layers'][layer] - base['layers'][layer]:+.3f} |" for layer in moved]
    lines += ["", "| layer | function (file) | delta calls/msg |", "|---|---|---|"]
    for layer in (*moved, FOREIGN):
        a, b = base["functions"][layer], change["functions"][layer]
        deltas = sorted(((b.get(n, 0.0) - a.get(n, 0.0), n) for n in set(a) | set(b)),
                        key=lambda d: (-abs(d[0]), d[1]))
        lines += [f"| {layer} | {name} | {delta:+.3f} |"
                  for delta, name in deltas[:TOP_FUNCTIONS] if round(delta, 3)]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("--change")  # default: this working tree
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, default=Path.cwd())
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="ab-", dir=args.out) as scratch:
        trees = {"base": extract(args.parent, Path(scratch)),
                 "change": extract(args.change, Path(scratch)) if args.change else ROOT}
        pairs = []
        for index in range(PAIRS):
            order = ("base", "change") if index % 2 == 0 else ("change", "base")
            pair = {side: run_once(trees[side], args.workload, args.seed, spec["run_seconds"])
                    for side in order}
            print(f"pair {index + 1}/{PAIRS}: " + ", ".join(
                f"{side} {pair[side][CLAIM]:.6g}" for side in order), flush=True)
            pairs.append(pair)
        sides = {side: profile(tree, args.workload, args.seed, Path(scratch))
                 for side, tree in trees.items()}
    rows = verdicts(pairs, spec)
    stem = args.out / f"ab_{args.workload}_s{args.seed}"
    record = {**vars(args), "out": str(args.out), "rows": rows, "pairs": pairs, "profiles": sides}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    stem.with_suffix(".md").write_text(table := render(args, rows, sides))
    print(table)
    correct = all(p[side]["correct"] for p in pairs for side in p)
    return 0 if correct and not any(r["status"] == "regressed" for r in rows) else 1


if __name__ == "__main__":
    raise SystemExit(main())
