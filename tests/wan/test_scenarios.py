"""Fig. 2 vs Fig. 3 scenario harnesses: the paper's headline shapes."""

from dataclasses import replace

from repro.analysis import percentile
from repro.netsim.units import MILLISECOND
from repro.wan import MultimodalScenario, ScenarioConfig, TodayScenario


def small_config(**over):
    base = dict(
        message_count=400,
        message_interval_ns=4_000,
        wan_delay_ns=10 * MILLISECOND,
        campus_delay_ns=2 * MILLISECOND,
    )
    base.update(over)
    return ScenarioConfig(**base)


class TestToday:
    def test_lossless_run_delivers_everything(self):
        result = TodayScenario(config=small_config()).run()
        assert result.sent == 400
        assert result.storage_delivered == 400
        assert result.researcher_delivered == 400
        assert result.fct_storage_ns is not None

    def test_termination_adds_latency_stage_by_stage(self):
        result = TodayScenario(config=small_config()).run()
        p50_storage = percentile(result.storage_latencies_ns, 0.5)
        p50_researcher = percentile(result.researcher_latencies_ns, 0.5)
        assert p50_researcher > p50_storage

    def test_loss_inflates_tail_latency(self):
        clean = TodayScenario(config=small_config()).run()
        lossy = TodayScenario(config=small_config(wan_loss_rate=0.002)).run()
        assert lossy.extras["tcp_wan_retransmits"] > 0
        assert percentile(lossy.storage_latencies_ns, 0.99) > percentile(
            clean.storage_latencies_ns, 0.99
        )


class TestMultimodal:
    def test_lossless_run_delivers_everything(self):
        result = MultimodalScenario(config=small_config()).run()
        assert result.storage_delivered == 400
        assert result.researcher_delivered == 400
        assert result.extras["unrecovered"] == 0

    def test_recovery_from_nic_buffer(self):
        result = MultimodalScenario(config=small_config(wan_loss_rate=0.01)).run()
        assert result.storage_delivered == 400
        assert result.extras["naks"] > 0
        assert result.extras["naks_served_nic1"] >= 1
        assert result.extras["unrecovered"] == 0

    def test_duplication_reaches_researcher_directly(self):
        result = MultimodalScenario(
            config=replace(small_config(), duplicate_to_researcher=True)
        ).run()
        assert result.researcher_delivered >= 400
        assert result.extras["duplicated"] == 400
        # Direct copies beat the store-then-distribute path.
        p50_direct = percentile(result.researcher_latencies_ns, 0.5)
        relayed = MultimodalScenario(config=small_config()).run()
        p50_relayed = percentile(relayed.researcher_latencies_ns, 0.5)
        assert p50_direct < p50_relayed


class TestHeadToHead:
    """The Fig. 2 vs Fig. 3 comparison the paper argues for."""

    def test_mmt_beats_today_on_storage_latency(self):
        cfg = small_config()
        today = TodayScenario(config=cfg).run()
        mmt = MultimodalScenario(config=cfg).run()
        assert percentile(mmt.storage_latencies_ns, 0.5) < percentile(
            today.storage_latencies_ns, 0.5
        )

    def test_mmt_tail_latency_robust_to_loss(self):
        cfg = small_config(wan_loss_rate=0.005)
        today = TodayScenario(config=cfg).run()
        mmt = MultimodalScenario(config=cfg).run()
        assert percentile(mmt.storage_latencies_ns, 0.99) < percentile(
            today.storage_latencies_ns, 0.99
        )

    def test_both_reliable(self):
        cfg = small_config(wan_loss_rate=0.01)
        today = TodayScenario(config=cfg).run()
        mmt = MultimodalScenario(config=cfg).run()
        assert today.storage_delivered == cfg.message_count
        assert mmt.storage_delivered == cfg.message_count
