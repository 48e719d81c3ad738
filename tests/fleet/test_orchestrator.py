"""FleetOrchestrator: hundreds of flows over tens of receiver DTNs."""

import pytest

from repro.dataplane import PilotConfig
from repro.fleet import FarmConfig, FleetConfig, FleetOrchestrator
from repro.integration import MultiFlowConfig, MultiFlowOrchestrator
from repro.netsim import units

MS = units.MILLISECOND


def fleet(**kwargs) -> FleetConfig:
    kwargs.setdefault("duration_ns", 1 * MS)
    kwargs.setdefault("message_bytes", 2000)
    return FleetConfig(**kwargs)


class TestSteadyState:
    def test_steady_run_is_fair_and_complete(self):
        report = FleetOrchestrator(fleet(nodes=4, flows=8)).run()
        assert report.complete
        assert report.farm.unrecovered == 0
        assert report.flow_fairness >= 0.9
        assert report.node_fairness >= 0.9
        assert report.aggregate_goodput_bps > 0
        assert report.recovery_ns == 0
        assert len(report.fct_ns) == 8
        assert all(fct > 0 for fct in report.fct_ns.values())

    def test_offered_bytes_accounted_per_flow(self):
        report = FleetOrchestrator(fleet(nodes=2, flows=4)).run()
        for fid in range(4):
            assert report.offered_bytes[fid] > 0
            assert (
                report.per_flow[fid]["bytes_delivered"]
                >= report.offered_bytes[fid]
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FleetOrchestrator(fleet(nodes=0))
        with pytest.raises(ValueError):
            FleetOrchestrator(fleet(flows=0))

    def test_farm_overrides_respected(self):
        config = fleet(nodes=2, flows=4, farm=FarmConfig(window=4))
        orchestrator = FleetOrchestrator(config)
        assert orchestrator.farm.config.nodes == 2
        assert orchestrator.farm.config.window == 4
        # nodes has one home, the FleetConfig: a second value is refused.
        with pytest.raises(ValueError, match="nodes is set on the outer config"):
            FleetOrchestrator(fleet(nodes=2, flows=4, farm=FarmConfig(nodes=99)))


class TestNestedConfig:
    """A caller's nested pilot or farm config is read, never written."""

    def test_caller_configs_are_left_unchanged(self):
        pilot, farm = PilotConfig(wan_loss_rate=0.01), FarmConfig(window=4)
        built = MultiFlowOrchestrator(MultiFlowConfig(flows=3, pilot=pilot))
        fleet_farm = FleetOrchestrator(fleet(nodes=2, flows=3, farm=farm)).farm
        assert pilot == PilotConfig(wan_loss_rate=0.01)
        assert farm == FarmConfig(window=4)
        assert built.testbed.config.flows == 3 and built.testbed.config.wan_loss_rate == 0.01
        assert (fleet_farm.config.nodes, fleet_farm.config.flows) == (2, 3)

    def test_flows_has_one_home(self):
        with pytest.raises(ValueError, match="flows is set on the outer config"):
            MultiFlowOrchestrator(MultiFlowConfig(flows=3, pilot=PilotConfig(flows=2)))


class TestCrashRecovery:
    def test_crash_schedule_validated_up_front(self):
        # Checked before the run starts: inside Simulator.run() a bad index
        # is a bare IndexError, and -1 quietly crashes the last node.
        for bad in (dict(crash_node=4), dict(crash_node=-1),
                    dict(crash_node=0, crash_at_ns=-1)):
            with pytest.raises(ValueError, match=r"valid: 0\.\.3|crash_at_ns must be >= 0"):
                FleetOrchestrator(fleet(nodes=4, flows=2, **bad))
        farm = FleetOrchestrator(fleet(nodes=4, flows=2)).farm
        for op in (farm.crash_node, farm.restore_node):
            with pytest.raises(ValueError, match=r"node 4 out of range \(valid: 0\.\.3\)"):
                op(4)

    def test_mid_run_crash_recovers(self):
        config = fleet(
            nodes=4, flows=8, duration_ns=2 * MS,
            crash_node=1, crash_at_ns=1 * MS + 50_000,  # off the tick grid
        )
        report = FleetOrchestrator(config).run()
        assert report.complete
        assert report.farm.marks_down == 1
        assert report.farm.redirected_windows > 0
        assert not report.per_node[1]["alive"]
        # Fairness judged over live nodes only.
        assert report.node_fairness >= 0.9
        # Losses on the cut link were repaired after the crash instant.
        sync = config.build_farm_config().sync_interval_ns
        if report.farm.retransmissions:
            assert 0 < report.recovery_ns < report.duration_ns + 100 * sync

    def test_crash_run_is_deterministic(self):
        def run():
            config = fleet(
                nodes=4, flows=8, seed=21, duration_ns=2 * MS,
                crash_node=2, crash_at_ns=1 * MS + 50_000,
            )
            report = FleetOrchestrator(config).run()
            return (
                report.farm.delivered,
                report.farm.retransmissions,
                report.recovery_ns,
                tuple(sorted(
                    (i, row["delivered"]) for i, row in report.per_node.items()
                )),
            )

        assert run() == run()
