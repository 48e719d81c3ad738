"""Campaign sharding: the jobs-invariance determinism contract.

The contract (:mod:`repro.analysis.shard`): the merged campaign
artifact — every metric, every trace digest, and the serialized bytes —
is identical for every ``--jobs N``. These tests exercise the helpers
in isolation, then run real campaigns (traced pilots, multi-flow,
chaos scenarios) sequentially and sharded and require equality.
"""

import pytest

from repro.analysis.shard import (
    ShardError,
    TracedPilotCase,
    campaign_digest,
    heartbeat,
    merge_campaign,
    merge_series,
    multiflow_case_metrics,
    run_sharded,
    run_traced_pilot_case,
    sampled_pilot_series_shard,
)
from repro.faults.chaos import ChaosConfig, run_scenarios
from repro.integration.multiflow import MultiFlowConfig
from repro.netsim.units import MICROSECOND

JOBS = 4


def _square(n: int) -> int:
    return n * n


# -- helpers -------------------------------------------------------------------


class TestRunSharded:
    def test_inline_matches_pooled(self):
        tasks = list(range(12))
        assert run_sharded(_square, tasks, jobs=1) == run_sharded(
            _square, tasks, jobs=JOBS
        )

    def test_preserves_task_order(self):
        tasks = [9, 1, 7, 3]
        assert run_sharded(_square, tasks, jobs=2) == [81, 1, 49, 9]

    def test_single_task_runs_inline(self):
        assert run_sharded(_square, [5], jobs=8) == [25]

    def test_empty_tasks(self):
        assert run_sharded(_square, [], jobs=4) == []

    def test_negative_jobs_rejected(self):
        with pytest.raises(ShardError, match="jobs"):
            run_sharded(_square, [1], jobs=-1)


class TestSplitAndMerge:
    def test_merge_campaign_sorts_by_label(self):
        bench = merge_campaign(
            "c", [("z_case", {"v": 1}), ("a_case", {"v": 2})], seed=3
        )
        assert list(bench.to_dict()["metrics"]) == ["a_case", "z_case"]
        assert bench.to_dict()["seed"] == 3

    def test_merge_campaign_rejects_duplicate_labels(self):
        with pytest.raises(ShardError, match="duplicate"):
            merge_campaign("c", [("x", {"v": 1}), ("x", {"v": 2})])

    def test_campaign_digest_is_order_insensitive_but_value_sensitive(self):
        a = {"metrics": {"x": {"v": 1}, "y": {"v": 2}}}
        b = {"metrics": {"y": {"v": 2}, "x": {"v": 1}}}  # same content
        c = {"metrics": {"x": {"v": 1}, "y": {"v": 3}}}
        assert campaign_digest(a) == campaign_digest(b)
        assert campaign_digest(a) != campaign_digest(c)


# -- real campaigns: sequential vs sharded -------------------------------------


PILOT_CASES = [TracedPilotCase(seed=seed, messages=40) for seed in range(41, 44)]
MULTIFLOW_CASES = [
    MultiFlowConfig(flows=2, seed=seed, duration_ns=200 * MICROSECOND)
    for seed in range(7, 10)
]


def _sweep_campaign(jobs: int) -> dict:
    traced = run_sharded(run_traced_pilot_case, PILOT_CASES, jobs=jobs)
    flows = run_sharded(multiflow_case_metrics, MULTIFLOW_CASES, jobs=jobs)
    merged = merge_campaign(
        "shard_test_campaign",
        list(traced) + list(flows),
        params={"jobs": jobs},
        seed=41,
    )
    artifact = merged.to_dict()
    # jobs is a *runner* parameter; mask it so artifacts are comparable.
    artifact["params"]["jobs"] = 0
    return artifact


class TestCampaignDeterminism:
    def test_sequential_and_sharded_campaigns_are_identical(self):
        sequential = _sweep_campaign(jobs=1)
        sharded = _sweep_campaign(jobs=JOBS)
        assert sharded == sequential
        assert campaign_digest(sharded) == campaign_digest(sequential)

    def test_trace_digests_survive_the_process_boundary(self):
        (label, metrics), = run_sharded(
            run_traced_pilot_case, [PILOT_CASES[0]], jobs=1
        )
        results = run_sharded(run_traced_pilot_case, PILOT_CASES[:2], jobs=2)
        assert results[0][0] == label
        assert results[0][1]["trace_digest"] == metrics["trace_digest"]
        assert len(metrics["trace_digest"]) == 64
        assert metrics["trace_events"] > 0


class TestChaosSharding:
    def test_chaos_scenarios_identical_across_jobs(self):
        cfg = ChaosConfig(messages=40, fleet_nodes=4, fleet_flows=4)
        sequential = run_scenarios(cfg, jobs=1)
        sharded = run_scenarios(cfg, jobs=JOBS)
        assert [run.scenario for run in sharded] == [
            run.scenario for run in sequential
        ]
        for seq_run, shard_run in zip(sequential, sharded):
            assert shard_run.report == seq_run.report
            assert shard_run.config == seq_run.config
        # Detached shards carry no live simulation state.
        assert all(run.pilot is None for run in sharded)
        assert all(run.injector is None for run in sharded)


class TestCampaignObservability:
    SAMPLED = [
        TracedPilotCase(seed=s, sample_every_ns=100_000) for s in (1, 2, 3, 4)
    ]

    def test_heartbeat_prints_per_shard_progress(self, capsys):
        results = run_sharded(
            _square, [2, 3], jobs=1, progress=heartbeat(prefix="demo")
        )
        assert results == [4, 9]
        err = capsys.readouterr().err
        assert "[demo 1/2]" in err
        assert "[demo 2/2]" in err

    def test_heartbeat_labels_tuple_results(self, capsys):
        run_sharded(
            lambda n: (f"case{n}", n), [7], jobs=1,
            progress=heartbeat(prefix="grid"),
        )
        assert "[grid 1/1] case7" in capsys.readouterr().err

    def test_merged_series_digest_is_jobs_invariant(self):
        from repro.obs import series_digest

        one = run_sharded(sampled_pilot_series_shard, self.SAMPLED, jobs=1)
        four = run_sharded(sampled_pilot_series_shard, self.SAMPLED, jobs=JOBS)
        merged_one = merge_series(one)
        merged_four = merge_series(four)
        assert merged_one == merged_four
        assert series_digest(merged_one) == series_digest(merged_four)
        # Every record carries its shard label for later slicing.
        assert all("shard" in record["labels"] for record in merged_one)

    def test_merge_series_rejects_duplicate_shards(self):
        records = [{"metric": "m", "labels": {}, "points": [[0, 1]]}]
        with pytest.raises(ShardError, match="duplicate"):
            merge_series([("a", records), ("a", records)])

    def test_sampled_shard_requires_sampling_period(self):
        with pytest.raises(ShardError, match="sample_every_ns"):
            sampled_pilot_series_shard(TracedPilotCase(seed=1))

    def test_traced_case_reports_series_digest(self):
        label, metrics = run_traced_pilot_case(self.SAMPLED[0])
        assert metrics["sample_emits"] > 0
        assert len(metrics["series_digest"]) == 64
        # The digest itself is jobs-stable: recompute in a pool.
        (pooled,) = run_sharded(
            run_traced_pilot_case, [self.SAMPLED[0]], jobs=1
        )
        assert pooled[1]["series_digest"] == metrics["series_digest"]
