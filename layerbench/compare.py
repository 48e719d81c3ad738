"""Compare two result sets written by ``layerbench.run --json``.

    python3 -m layerbench.compare A.json B.json

Per workload and end-to-end metric: both values, the ratio B/A (base:
A), the metric's bound from ``BENCHMARK.json``, and a verdict —

- ``regressed``: B's median is worse than A's by more than the bound;
- ``unresolved``: within the bound, but the reps of either set spread
  wider than the bound, so "unchanged" cannot be claimed (unless every
  rep of B reads better than every rep of A);
- ``ok``: otherwise.

Exit status is 1 if anything regressed. One pair of sets is one
observation: a claimed *gain* still needs the ten alternating pairs the
choosing-metrics guide asks for.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median

from . import metrics

ROOT = Path(__file__).resolve().parent.parent


def allowed_worsening(name: str, bound: float, base: float) -> float:
    """The relative bound, widened for ``setup_s`` by its absolute floor."""
    if name == "setup_s" and base > 0:
        return max(bound, metrics.SETUP_FLOOR_S / base)
    return bound


def _relative_range(samples: list[float]) -> float:
    return (max(samples) - min(samples)) / median(samples) if samples else 0.0


def classify(name: str, better: str, bound: float, a: float, b: float,
             a_samples: list[float] = (), b_samples: list[float] = ()) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b - a) / a
    allowed = allowed_worsening(name, bound, a)
    if worse_by > allowed:
        return "regressed"
    spread = max(_relative_range(list(a_samples)), _relative_range(list(b_samples)))
    if spread > allowed:
        every_b_better = bool(a_samples and b_samples) and (
            max(b_samples) < min(a_samples) if better == "lower"
            else min(b_samples) > max(a_samples))
        if not every_b_better:
            return "unresolved"
    return "ok"


def compare_sets(first: dict, second: dict, spec: dict) -> list[dict]:
    """One row per (workload, end-to-end metric) present in both sets."""
    rows = []
    for workload in first:
        a_run = first[workload].get("untraced")
        b_run = second.get(workload, {}).get("untraced")
        if a_run is None or b_run is None:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = a_run["metrics"][name]["value"]
            b = b_run["metrics"][name]["value"]
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": metric["unit"],
                "a": a,
                "b": b,
                "ratio": b / a,
                "bound": allowed_worsening(name, metric["bound"], a),
                "exact": name in metrics.EXACT,
                "status": classify(
                    name, metric["better"], metric["bound"], a, b,
                    a_run["detail"]["samples"].get(name, ()),
                    b_run["detail"]["samples"].get(name, ())),
            })
    return rows


def within_noise(row: dict) -> bool:
    """Two sets of the *same* code: exact metrics must be equal, host
    metrics within the bound in either direction."""
    if row["exact"]:
        return row["a"] == row["b"]
    return abs(row["ratio"] - 1.0) <= row["bound"]


def render(rows: list[dict]) -> str:
    lines = [f"{'workload':<15} {'metric':<20} {'A':>14} {'B':>14} "
             f"{'B/A (base A)':>13} {'bound':>7}  verdict"]
    for row in rows:
        lines.append(
            f"{row['workload']:<15} {row['metric']:<20} {row['a']:>14.6g} {row['b']:>14.6g} "
            f"{row['ratio']:>13.4f} {row['bound']:>7.1%}  {row['status']}  [{row['unit']}]")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    first, second = (json.loads(Path(path).read_text()) for path in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare_sets(first, second, spec)
    print(render(rows))
    return 1 if any(row["status"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main())
