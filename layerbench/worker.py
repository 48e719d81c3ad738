"""Measure one workload in this (fresh, single-threaded) process.

``python -m layerbench.worker --workload W --seed N --seconds S --trace 0|1``
prints one JSON object as the last line of stdout. ``run.py`` starts one
worker per (workload, mode) so ``peak_rss_mib`` is per workload and the
profiler's memory never reaches it.

- ``--trace 0``: untraced reps for ``--seconds`` host seconds (at least
  three), end-to-end metrics as medians over reps.
- ``--trace 1``: one untraced rep (phases, counters, the baseline for
  ``trace_overhead_x``) and two profiled reps (the fold, and the check
  that call counts repeat); writes phase spans and the folded profile
  under ``layerbench/out/``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pstats
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median

from . import DEFAULT_SEED, metrics
from .fold import LAYERS, OTHER, LayerMapError, fold_profile, map_source_tree, top_functions
from .stats import digest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PACKAGE_ROOT = ROOT / "src" / "repro"
OUT_DIR = BENCH_DIR / "out"
EXPECTED_PATH = BENCH_DIR / "expected.json"
GOLDEN_PATH = ROOT / "BENCH_fig4_pilot.json"
GOLDEN_CASE = "fabric-like (10 ms WAN)"

#: Fewest reps whose median can shrug off one disturbed rep.
MIN_REPS = 3
#: Instrument validation (traced mode).
PROFILE_SUM_TOLERANCE = 0.05
OTHER_SHARE_LIMIT = 0.05

clock = time.perf_counter


class SpanLog:
    """Phase spans kept in memory; written out once at the end."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        #: Shared by every span of one rep (the trace id).
        self.rep = "process"

    @contextmanager
    def span(self, name: str):
        record = self.add(name, clock(), None, self._open[-1] if self._open else None)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end_s"] = clock()
            self._open.pop()

    def add(self, name: str, start_s: float, end_s: float | None, parent: int | None) -> dict:
        record = {"id": len(self.spans), "rep": self.rep, "name": name,
                  "parent": parent, "start_s": start_s, "end_s": end_s}
        self.spans.append(record)
        return record

    def write(self, path: Path, workload: str, seed: int) -> None:
        origin = self.spans[0]["start_s"]
        spans = [{**span, "start_s": span["start_s"] - origin, "end_s": span["end_s"] - origin}
                 for span in self.spans]
        path.write_text(json.dumps({"workload": workload, "seed": seed,
                                    "unit": "s since the first span", "spans": spans},
                                   indent=1) + "\n")


def _duration(span: dict) -> float:
    return span["end_s"] - span["start_s"]


def run_rep(workload, seed: int, spans: SpanLog, label: str, profiler=None):
    """One rep: fresh build, inject, run, extract — each a phase span.

    Returns ``(Rep, phases)``. Build work a harness does inside its own
    ``run`` call (incast fabrics) is moved from ``run_s`` to ``build_s``
    as child spans of ``run``; ``profiled_s`` stays the whole call.
    """
    gc.collect()
    spans.rep = label
    with spans.span("build") as build:
        ctx = workload.build(seed)
    with spans.span("inject") as inject:
        workload.inject(ctx)
    with spans.span("run") as run:
        if profiler is not None:
            profiler.enable()
        workload.run(ctx)
        if profiler is not None:
            profiler.disable()
    with spans.span("report") as report:
        rep = workload.extract(ctx)
    nested = 0.0
    for start_s, end_s in rep.nested_build_spans:
        spans.add("build.fabric", start_s, end_s, run["id"])
        nested += end_s - start_s
    phases = {
        "build_s": _duration(build) + nested,
        "inject_s": _duration(inject),
        "run_s": _duration(run) - nested,
        "report_s": _duration(report),
        "profiled_s": _duration(run),
    }
    return rep, phases


class Checks:
    """Named pass/fail results; the run is correct iff all passed."""

    def __init__(self) -> None:
        self.rows: list[dict] = []
        self._reps = 0

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.rows.append({"name": name, "ok": bool(ok), "detail": detail})

    def add_rep(self, label: str, rep) -> None:
        """A rep's invariants: all of the first rep's, later failures only
        (reps of one seed are identical, so later passes add nothing)."""
        self._reps += 1
        for name, ok, detail in rep.checks:
            if self._reps == 1 or not ok:
                self.add(f"rep {label}: {name}", ok, detail)

    @property
    def ok(self) -> bool:
        return all(row["ok"] for row in self.rows)


def check_warm_up(checks: Checks, warm_up) -> None:
    """The warm-up is the committed Fig. 4 golden case; pin it."""
    delivered, p50_ns = warm_up()
    try:
        golden = json.loads(GOLDEN_PATH.read_text())["metrics"][GOLDEN_CASE]
    except (OSError, KeyError, ValueError) as error:
        checks.add("warm-up reproduces BENCH_fig4_pilot.json", False, repr(error))
        return
    checks.add(
        "warm-up reproduces BENCH_fig4_pilot.json",
        delivered == golden["delivered"] and p50_ns == golden["p50_latency_ns"],
        f"delivered {delivered} (golden {golden['delivered']}), "
        f"p50 {p50_ns} ns (golden {golden['p50_latency_ns']:.0f})",
    )


def check_digest(checks: Checks, workload_name: str, seed: int,
                 result_digest: str, update: bool) -> None:
    """Pin the simulated results of the default seed to expected.json."""
    if seed != DEFAULT_SEED:
        print(f"note: seed {seed} is not the default ({DEFAULT_SEED}); "
              "expected.json digest not checked (invariants still are)", file=sys.stderr)
        return
    expected = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
    if update:
        expected[workload_name] = {"seed": seed, "digest": result_digest}
        EXPECTED_PATH.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
        return
    want = expected.get(workload_name, {}).get("digest")
    checks.add(
        "result digest matches expected.json",
        result_digest == want,
        f"sha256 {result_digest[:16]}…" if result_digest == want else
        f"got {result_digest[:16]}…, expected {str(want)[:16]}…: simulated results "
        "changed; if that is intended, rerun with --update-expected",
    )


def simulated_metrics(rep) -> dict[str, float]:
    return {
        "events_per_msg": rep.events / rep.delivered,
        "sim_goodput_gbps": rep.payload_bytes * 8 / rep.sim_span_ns,
        "sim_latency_p50_us": rep.latency_p50_ns / 1e3,
        "sim_latency_tail_us": rep.latency_tail_ns / 1e3,
    }


def measure_end_to_end(workload, seed: int, seconds: float, checks: Checks,
                       spans: SpanLog) -> tuple[dict, dict]:
    """Untraced reps until ``seconds`` of host time have been measured."""
    first = None
    digests, setup, run = [], [], []
    attempted = failed = 0
    started = clock()
    while len(run) < MIN_REPS or clock() - started < seconds:
        label = str(len(run) + 1)
        rep, phase = run_rep(workload, seed, spans, label)
        checks.add_rep(label, rep)
        first = first or rep
        digests.append(digest(rep.digest_material))
        setup.append(phase["build_s"] + phase["inject_s"])
        run.append(phase["run_s"])
        attempted += rep.offered
        failed += rep.failed
    checks.add("simulated results identical across reps", len(set(digests)) == 1,
               f"{len(set(digests))} distinct digests over {len(digests)} reps")

    run_wall_s = median(run)
    values = {
        "setup_s": median(setup),
        "run_wall_s": run_wall_s,
        "msgs_per_s": first.delivered / run_wall_s,
        "events_per_s": first.events / run_wall_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **simulated_metrics(first),
    }
    detail = {
        "reps": len(run),
        "samples": {
            "setup_s": setup,
            "run_wall_s": run,
            "msgs_per_s": [first.delivered / t for t in run],
            "events_per_s": [first.events / t for t in run],
        },
        "messages": first.delivered,
        "ops_attempted": attempted,
        "ops_failed": failed,
        "failed_share": failed / attempted,
        "tail_percentile": first.tail_pct,
        "digest": digests[0],
    }
    return values, detail


def measure_layers(workload, seed: int, import_s: float, checks: Checks,
                   spans: SpanLog) -> tuple[dict, dict]:
    """One untraced rep, then two profiled ones; fold and validate."""
    try:
        file_layers = map_source_tree(PACKAGE_ROOT)
        checks.add("every src/repro file maps to exactly one layer", True,
                   f"{len(file_layers)} files")
    except LayerMapError as error:
        checks.add("every src/repro file maps to exactly one layer", False, str(error))
        file_layers = {}

    plain, plain_phases = run_rep(workload, seed, spans, "untraced")
    checks.add_rep("untraced", plain)

    folds, traced_phases, stats = [], [], None
    for label in ("traced1", "traced2"):
        profiler = cProfile.Profile()
        rep, phase = run_rep(workload, seed, spans, label, profiler)
        checks.add_rep(label, rep)
        rep_stats = pstats.Stats(profiler).stats
        folds.append(fold_profile(rep_stats, file_layers))
        traced_phases.append(phase)
        stats = stats or rep_stats
    fold, phase = folds[0], traced_phases[0]

    messages = plain.delivered
    total_self = sum(fold[layer]["self_s"] for layer in LAYERS)
    gap = abs(total_self - phase["profiled_s"]) / phase["profiled_s"]
    checks.add("layer self-times sum to the traced run phase (5 %)",
               gap <= PROFILE_SUM_TOLERANCE,
               f"sum {total_self:.3f} s vs phase {phase['profiled_s']:.3f} s")
    other_share = fold[OTHER]["self_s"] / total_self
    checks.add("other.self_share <= 5 % after caller attribution",
               other_share <= OTHER_SHARE_LIMIT, f"{other_share:.4f}")
    moved = [layer for layer in LAYERS
             if folds[0][layer]["calls"] != folds[1][layer]["calls"]]
    checks.add("calls_per_msg identical across two traced reps", not moved,
               ", ".join(moved))
    counters = plain.counters
    if not (counters.get("trace_events") or counters.get("obs_samples")
            or counters.get("int_postcards")):
        busy = [layer for layer in ("trace", "telemetry", "obs") if fold[layer]["calls"]]
        checks.add("trace/telemetry/obs calls_per_msg == 0 when nothing observes",
                   not busy, ", ".join(busy))

    values: dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.self_us_per_msg"] = fold[layer]["self_s"] * 1e6 / messages
        values[f"{layer}.calls_per_msg"] = fold[layer]["calls"] / messages
        values[f"{layer}.self_share"] = fold[layer]["self_s"] / total_self
    values.update(metrics.counter_values(plain.counters, messages, plain.events))
    values.update({
        "phase.import_s": import_s,
        "phase.build_s": plain_phases["build_s"],
        "phase.inject_s": plain_phases["inject_s"],
        "phase.run_s": plain_phases["run_s"],
        "phase.report_s": plain_phases["report_s"],
        "trace_overhead_x": phase["run_s"] / plain_phases["run_s"],
    })
    detail = {
        "reps": 3,
        "messages": messages,
        "ops_attempted": plain.offered,
        "ops_failed": plain.failed,
        "failed_share": plain.failed / plain.offered,
        "tail_percentile": plain.tail_pct,
        "digest": digest(plain.digest_material),
        "traced_run_s": [p["run_s"] for p in traced_phases],
        "simulated": simulated_metrics(plain),
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{workload.name}.profile.json").write_text(json.dumps({
        "workload": workload.name,
        "seed": seed,
        "layers": fold,
        "top_functions": top_functions(stats, file_layers),
    }, indent=1) + "\n")
    return values, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--update-expected", action="store_true")
    args = parser.parse_args(argv)

    spans = SpanLog()
    sys.path.insert(0, str(ROOT / "src"))
    with spans.span("import") as importing:
        from . import workloads
    import_s = _duration(importing)
    workload = workloads.WORKLOADS[args.workload]

    checks = Checks()
    with spans.span("warm-up"):
        check_warm_up(checks, workloads.warm_up)

    if args.trace:
        values, detail = measure_layers(workload, args.seed, import_s, checks, spans)
        units = {name: unit for name, unit, _better in metrics.per_layer()}
    else:
        values, detail = measure_end_to_end(
            workload, args.seed, args.seconds, checks, spans)
        units = {name: unit for name, unit, _better, _bound in metrics.END_TO_END}
    checks.add("failed_share == 0", detail["ops_failed"] == 0,
               f"{detail['ops_failed']} of {detail['ops_attempted']} operations failed")
    check_digest(checks, workload.name, args.seed, detail["digest"], args.update_expected)

    if args.trace:
        spans.write(OUT_DIR / f"{workload.name}.spans.json", workload.name, args.seed)

    print(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "correct": checks.ok,
        "attempted": detail["ops_attempted"],
        "failed": detail["ops_failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "checks": checks.rows,
        "detail": detail,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
