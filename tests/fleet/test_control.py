"""FleetController: epoch-numbered sync loop over a balancer table."""

import pytest

from repro.core import make_experiment_id
from repro.dataplane import LoadBalancerProgram
from repro.fleet import FleetController
from repro.netsim import Simulator

EXP_ID = make_experiment_id(31)
NODES = ["10.40.0.2", "10.40.0.3", "10.40.0.4"]
INTERVAL = 100_000


@pytest.fixture
def sim():
    return Simulator(seed=5)


@pytest.fixture
def balancer():
    return LoadBalancerProgram(EXP_ID, backends=list(NODES), window=8)


def make_controller(sim, balancer, fills=None):
    fills = fills if fills is not None else {}
    return FleetController(
        sim, balancer, fill_fn=lambda addr: fills.get(addr, 0),
        sync_interval_ns=INTERVAL,
    )


class TestSyncTicks:
    def test_fill_reports_reach_the_table(self, sim, balancer):
        fills = {NODES[0]: 75, NODES[1]: 10}
        controller = make_controller(sim, balancer, fills)
        controller.run_until(3 * INTERVAL)
        sim.run()
        assert controller.stats.syncs == 3
        assert controller.stats.fill_reports == 3 * len(NODES)
        assert balancer.backends[NODES[0]].fill_pct == 75
        assert balancer.backends[NODES[1]].fill_pct == 10
        assert balancer.backends[NODES[2]].fill_pct == 0

    def test_run_until_is_idempotent(self, sim, balancer):
        controller = make_controller(sim, balancer)
        assert controller.run_until(3 * INTERVAL) == 3
        # Overlapping horizon: already-covered ticks are not duplicated.
        assert controller.run_until(3 * INTERVAL) == 0
        assert controller.run_until(5 * INTERVAL) == 2
        sim.run()
        assert controller.stats.syncs == 5

    def test_interval_validated(self, sim, balancer):
        with pytest.raises(ValueError):
            make_controller(sim, balancer).__class__(
                sim, balancer, fill_fn=lambda a: 0, sync_interval_ns=0
            )


class TestLivenessMarks:
    def test_down_mark_applied_at_next_tick(self, sim, balancer):
        balancer.route(0, 0)  # bind a window so the mark has work to do
        controller = make_controller(sim, balancer)
        controller.run_until(4 * INTERVAL)
        sim.schedule(INTERVAL + 30_000, controller.mark_node_down, NODES[0])
        sim.run()
        assert controller.stats.marks_down == 1
        assert balancer.backends[NODES[0]].dead
        # Marked at t=130µs, applied at the t=200µs tick.
        assert controller.stats.update_latency_ns == [INTERVAL - 30_000]
        assert controller.stats.redirected_windows >= 0

    def test_mark_while_pending_is_not_double_counted(self, sim, balancer):
        controller = make_controller(sim, balancer)
        controller.run_until(2 * INTERVAL)
        sim.schedule(10_000, controller.mark_node_down, NODES[0])
        sim.schedule(20_000, controller.mark_node_down, NODES[0])
        sim.run()
        assert controller.stats.marks_down == 1

    def test_mark_up_round_trip(self, sim, balancer):
        controller = make_controller(sim, balancer)
        controller.run_until(4 * INTERVAL)
        sim.schedule(50_000, controller.mark_node_down, NODES[1])
        sim.schedule(INTERVAL + 50_000, controller.mark_node_up, NODES[1])
        sim.run()
        assert controller.stats.marks_down == 1
        assert controller.stats.marks_up == 1
        assert not balancer.backends[NODES[1]].dead
        # The node is skipped by exactly the one tick it was down for
        # (the up-mark is applied before the same tick's fill loop).
        assert controller.stats.fill_reports == 4 * len(NODES) - 1

    def test_mark_up_without_down_is_a_noop(self, sim, balancer):
        controller = make_controller(sim, balancer)
        controller.run_until(INTERVAL)
        controller.mark_node_up(NODES[2])
        sim.run()
        assert controller.stats.marks_up == 0

    def test_mark_past_horizon_gets_a_catchup_tick(self, sim, balancer):
        controller = make_controller(sim, balancer)
        controller.run_until(INTERVAL)
        sim.run()
        assert controller.stats.syncs == 1
        # The horizon is exhausted; a late crash still gets detected.
        controller.mark_node_down(NODES[0])
        sim.run()
        assert controller.stats.syncs == 2
        assert controller.stats.marks_down == 1
        assert balancer.backends[NODES[0]].dead

