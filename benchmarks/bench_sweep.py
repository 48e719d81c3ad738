"""P3 — sharded campaign sweep: determinism across job counts.

Runs one campaign — a seed sweep of traced pilot runs plus a seed
sweep of concurrent multi-flow runs — twice: sequentially
(``jobs=1``, the inline baseline) and sharded across worker processes
(``jobs=4``). The *assertion* is the sharding determinism contract:
the merged campaign artifact, including every per-run trace digest,
must be identical for every job count. Wall-clock speedup is neither
asserted nor recorded: measured with more jobs than cores it says
nothing about the fan-out, and layerbench owns wall time.
"""

from __future__ import annotations

from repro.analysis.shard import (
    TracedPilotCase,
    campaign_digest,
    merge_campaign,
    multiflow_case_metrics,
    run_sharded,
    run_traced_pilot_case,
)
from repro.integration.multiflow import MultiFlowConfig
from repro.netsim.units import MILLISECOND

JOBS = 4
PILOT_SEEDS = range(41, 47)
MULTIFLOW_SEEDS = range(7, 13)

PILOT_CASES = [TracedPilotCase(seed=seed, messages=200) for seed in PILOT_SEEDS]
MULTIFLOW_CASES = [
    MultiFlowConfig(flows=4, seed=seed, duration_ns=1 * MILLISECOND)
    for seed in MULTIFLOW_SEEDS
]


def run_campaign(jobs: int) -> dict:
    """Run the full sweep at a job count; returns the merged artifact."""
    traced = run_sharded(run_traced_pilot_case, PILOT_CASES, jobs=jobs)
    flows = run_sharded(multiflow_case_metrics, MULTIFLOW_CASES, jobs=jobs)
    merged = merge_campaign(
        "sweep_campaign",
        list(traced) + list(flows),
        params={"pilot_cases": len(PILOT_CASES), "multiflow_cases": len(MULTIFLOW_CASES)},
        seed=min(PILOT_SEEDS),
    )
    return merged.to_dict()


def test_sweep_shard_determinism(once, bench_result):
    sequential = run_campaign(jobs=1)
    sharded = once(run_campaign, jobs=JOBS)

    # The determinism contract: the merged artifact — every metric and
    # every per-run trace digest — is identical for every job count.
    assert sharded == sequential
    digest = campaign_digest(sharded)
    assert digest == campaign_digest(sequential)

    # Every traced case must have produced a non-trivial trace.
    for case_metrics in sharded["metrics"].values():
        if "trace_digest" in case_metrics:
            assert case_metrics["trace_events"] > 0
            assert len(case_metrics["trace_digest"]) == 64

    bench_result.seed = min(PILOT_SEEDS)
    bench_result.params = {
        "pilot_cases": len(PILOT_CASES),
        "multiflow_cases": len(MULTIFLOW_CASES),
        "jobs": JOBS,
    }
    bench_result.record(
        "test_sweep_shard_determinism",
        cases=len(PILOT_CASES) + len(MULTIFLOW_CASES),
        identical=1,
        campaign_digest=digest,
        jobs=JOBS,
    )
