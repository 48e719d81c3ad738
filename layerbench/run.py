"""layerbench: one benchmark for real runs.

    python3 -m layerbench.run                       # all four workloads, untraced + traced
    python3 -m layerbench.run --workload pilot_clean --seed 8 --trace 0
    python3 -m layerbench.run --check-noise         # two untraced sets, compared
    python3 -m layerbench.run --json OUT.json       # keep the results for compare

Every (workload, mode) runs in its own fresh single-threaded worker
process, one after another — never more than one busy process. With
both ``--workload`` and ``--trace`` given (how the driver calls it) the
last line of stdout is the contract's JSON object; otherwise the
metrics are printed by name with their units. Exit status is non-zero
if any correctness or instrument check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from . import DEFAULT_SEED, compare, metrics

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


class WorkerFailed(RuntimeError):
    """A worker process died without printing a result."""


def run_worker(workload: str, seed: int, seconds: int, trace: int,
               update_expected: bool = False) -> dict:
    """Run one (workload, mode) in a fresh process; return its result."""
    command = [sys.executable, "-m", "layerbench.worker", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if update_expected:
        command.append("--update-expected")
    # A fixed hash seed makes two processes of the same code lay out
    # their dicts and sets alike, which removes one source of
    # process-to-process timing spread. Simulated results never depend
    # on it (tier-1 runs with random hashing).
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise WorkerFailed(f"{workload} (trace={trace}) exited {done.returncode}")
    return json.loads(lines[-1])


def check_contract(result: dict, spec: dict) -> None:
    """The worker must emit exactly the metrics BENCHMARK.json lists."""
    listed = [m["name"] for m in spec["per_layer" if result["trace"] else "end_to_end"]]
    if sorted(listed) != sorted(result["metrics"]):
        result["correct"] = False
        result["checks"].append({
            "name": "metrics match BENCHMARK.json", "ok": False,
            "detail": f"{sorted(set(listed) ^ set(result['metrics']))}",
        })


def print_result(result: dict) -> None:
    detail = result["detail"]
    mode = "traced (per-layer)" if result["trace"] else "untraced (end-to-end)"
    print(f"\n== {result['workload']} · seed {result['seed']} · {mode} · "
          f"{detail['reps']} reps · {detail['messages']} msgs/rep ==")
    samples = detail.get("samples", {})
    for name, metric in result["metrics"].items():
        if result["trace"] and name.endswith((".calls_per_msg", ".self_share")):
            continue  # printed beside self_us_per_msg below
        line = f"  {name:<42} {metric['value']:>16.8g} {metric['unit']}"
        if name in samples:
            line += (f"   (median of {len(samples[name])}; "
                     f"min {min(samples[name]):.4g}, max {max(samples[name]):.4g})")
        elif name in metrics.EXACT:
            line += "   (simulated, exact)"
        if name == "sim_latency_tail_us":
            line += f" p{detail['tail_percentile']:g}"
        if name.endswith(".self_us_per_msg"):
            layer = name.rsplit(".", 1)[0]
            line += (f"   {result['metrics'][layer + '.calls_per_msg']['value']:>10.3f} calls/msg"
                     f"   {result['metrics'][layer + '.self_share']['value']:>7.2%} of run")
        print(line)
    print(f"  {'failed_share':<42} {detail['failed_share']:>16.6g} ratio   "
          f"(ops_attempted {detail['ops_attempted']}, ops_failed {detail['ops_failed']})")
    for check in result["checks"]:
        print(f"  [{'ok' if check['ok'] else 'FAILED'}] {check['name']}"
              + (f" — {check['detail']}" if check["detail"] else ""))


def run_set(workloads: list[str], seed: int, seconds: int, traces: list[int],
            spec: dict, update_expected: bool = False) -> dict:
    """One set: every requested (workload, mode), one process at a time."""
    results: dict = {}
    for workload in workloads:
        for trace in traces:
            result = run_worker(workload, seed, seconds, trace,
                                update_expected and not trace)
            check_contract(result, spec)
            print_result(result)
            results.setdefault(workload, {})["traced" if trace else "untraced"] = result
    return results


def all_correct(results: dict) -> bool:
    return all(r["correct"] for modes in results.values() for r in modes.values())


def main(argv=None) -> int:
    spec = json.loads(BENCHMARK_JSON.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names, help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"],
                        help="host seconds of untraced reps per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: untraced only; 1: traced only (default: both)")
    parser.add_argument("--json", metavar="OUT", help="write the full results here")
    parser.add_argument("--check-noise", action="store_true",
                        help="run two untraced sets and compare them")
    parser.add_argument("--update-expected", action="store_true",
                        help="rewrite expected.json from this run (default seed only)")
    args = parser.parse_args(argv)

    workloads = [args.workload] if args.workload else names
    traces = [0, 1] if args.trace is None else [args.trace]
    try:
        if args.check_noise:
            first = run_set(workloads, args.seed, args.seconds, [0], spec)
            second = run_set(workloads, args.seed, args.seconds, [0], spec)
            rows = compare.compare_sets(first, second, spec)
            print()
            print(compare.render(rows))
            agree = all(compare.within_noise(row) for row in rows)
            print(f"\ncheck-noise: {'sets agree' if agree else 'SETS DISAGREE'}")
            return 0 if agree and all_correct(first) and all_correct(second) else 1
        results = run_set(workloads, args.seed, args.seconds, traces, spec,
                          args.update_expected)
    except WorkerFailed as error:
        print(f"layerbench: {error}", file=sys.stderr)
        return 1

    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=1) + "\n")
    if args.workload and args.trace is not None:
        result = results[args.workload]["traced" if args.trace else "untraced"]
        print(json.dumps({key: result[key]
                          for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if all_correct(results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
