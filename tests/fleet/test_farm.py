"""ReceiverFarm: one ingest pipe, N sticky receiver DTNs."""

from collections import Counter

from repro.core import MsgType
from repro.fleet import FarmConfig, ReceiverFarm, node_address
from repro.netsim import Simulator


def build(seed=7, **kwargs) -> ReceiverFarm:
    return ReceiverFarm(sim=Simulator(seed=seed), config=FarmConfig(**kwargs))


def run_stream(farm, count=96, payload=2000, interval_ns=1_000):
    farm.send_split(count, payload_size=payload, interval_ns=interval_ns)
    return farm.run()


class TestAddressing:
    def test_node_addresses_unique_at_scale(self):
        addresses = [node_address(i) for i in range(400)]
        assert len(set(addresses)) == 400
        assert node_address(0) == "10.40.0.2"
        assert node_address(200) == "10.40.1.2"


class TestSteadyState:
    def test_whole_window_striping_across_nodes(self):
        farm = build(nodes=3, flows=2, window=8)
        report = run_stream(farm, count=96)
        assert report.complete
        assert report.delivered == 96
        # Each (node, flow) slice is made of whole event windows.
        window = farm.config.window
        per = {}
        for _t, _m, node_idx, fid, seq in farm.deliveries:
            per.setdefault((node_idx, fid), []).append(seq)
        for (node_idx, fid), seqs in per.items():
            ticks = {s // window for s in seqs}
            assert len(seqs) == window * len(ticks), (
                f"node{node_idx}/flow{fid} got a partial window"
            )

    def test_delivery_log_agrees_with_node_and_flow_counters(self):
        farm = build(nodes=3, flows=2, window=8)
        report = run_stream(farm, count=96)
        rows = list(farm.deliveries)
        assert Counter(node for _t, _m, node, _f, _s in rows) == {
            index: row["delivered"] for index, row in report.per_node.items()}
        assert Counter(fid for _t, _m, _n, fid, _s in rows) == {
            fid: len(log) for fid, log in farm.delivered_by_flow.items()}
        assert {msg_type for _t, msg_type, *_ in rows} == {MsgType.DATA}
        assert sorted((fid, seq) for *_, fid, seq in rows) == [
            (fid, seq) for fid in (0, 1) for seq in range(48)]

    def test_single_node_farm_collapses_to_one_receiver(self):
        farm = build(nodes=1, flows=1)
        report = run_stream(farm, count=50)
        assert report.complete
        assert report.per_node[0]["delivered"] == 50
        assert report.epoch == 0  # no liveness churn, no table updates

    def test_shares_are_even_across_nodes(self):
        farm = build(nodes=4, flows=8, window=4)
        report = run_stream(farm, count=320)
        counts = [row["delivered"] for row in report.per_node.values()]
        assert sum(counts) == 320
        assert max(counts) - min(counts) <= 2 * farm.config.window

    def test_sync_loop_reports_fill(self):
        farm = build(nodes=2, flows=2)
        report = run_stream(farm, count=40)
        assert report.syncs >= 2
        assert farm.controller.stats.fill_reports >= 2 * report.syncs // 2


class TestRecovery:
    def test_lossy_wan_reconciles_to_complete(self):
        farm = build(seed=11, nodes=4, flows=4, wan_loss_rate=0.05)
        report = run_stream(farm, count=200)
        assert report.complete
        assert report.delivered == 200
        assert report.retransmissions > 0
        # Repairs were calendar-directed: served from the U280 buffer
        # (one NAK can request many seqs, so served ≤ retransmissions).
        assert 0 < report.naks_served <= report.retransmissions

    def test_crash_redirects_bound_windows(self):
        farm = build(nodes=4, flows=4, window=4)
        interval = 5_000
        for fid in range(4):
            farm.send_stream(50, payload_size=2000, interval_ns=interval, flow=fid)
        # Mid-stream and off the sync-tick grid, so there is a real
        # detection gap (an on-tick crash is applied the same instant).
        crash_at = 26 * interval + 1_000
        assert crash_at % farm.config.sync_interval_ns != 0
        farm.sim.schedule(crash_at, farm.crash_node, 1)
        report = farm.run()
        assert report.complete
        assert report.marks_down == 1
        assert report.redirected_windows > 0
        assert not farm.nodes[1].alive
        # Detection is tick-aligned: latency bounded by one interval.
        assert 0 < report.max_update_latency_ns <= farm.config.sync_interval_ns
        # The dead node's share stops; survivors absorb the rest.
        survivors = sum(
            row["delivered"] for i, row in report.per_node.items() if i != 1
        )
        assert survivors + report.per_node[1]["delivered"] == 200


class TestTelemetry:
    def test_fleet_node_series_scraped(self):
        farm = build(nodes=3, flows=2, telemetry=True)
        run_stream(farm, count=60)
        registry = farm.collect_telemetry()
        by_name = {}
        for metric in registry.snapshot():
            by_name.setdefault(metric["name"], []).append(metric)
        for name in (
            "fleet_node_fill_pct",
            "fleet_node_windows_assigned",
            "fleet_node_packets_steered",
            "fleet_node_bytes_steered",
        ):
            series = by_name.get(name, [])
            backends = {m["labels"]["backend"] for m in series}
            assert backends == {node_address(i) for i in range(3)}, name
        steered = sum(
            m["value"] for m in by_name["fleet_node_packets_steered"]
        )
        assert steered >= 60
        assert by_name["fleet_controller_syncs"][0]["value"] >= 1

    def test_dead_node_visible_in_scrape(self):
        farm = build(nodes=2, flows=1, telemetry=True)
        farm.send_stream(20, payload_size=2000, interval_ns=1_000, flow=0)
        farm.sim.run()
        farm.crash_node(0)
        farm.run()
        dead = {
            m["labels"]["backend"]: m["value"]
            for m in farm.collect_telemetry().snapshot()
            if m["name"] == "fleet_node_dead"
        }
        assert dead[node_address(0)] == 1
        assert dead[node_address(1)] == 0


class TestDeterminism:
    def steering_log(self, seed):
        farm = build(
            seed=seed, nodes=4, flows=4, window=4,
            wan_loss_rate=0.02, record_steering=True,
        )
        for fid in range(4):
            farm.send_stream(40, payload_size=2000, interval_ns=1_500, flow=fid)
        crash_at = 20 * 1_500 + farm.config.sync_interval_ns // 2
        farm.sim.schedule(crash_at, farm.crash_node, 2)
        report = farm.run()
        return report, list(farm.balancer.steering_log)

    def test_same_seed_same_steering_log(self):
        report_a, log_a = self.steering_log(seed=99)
        report_b, log_b = self.steering_log(seed=99)
        assert log_a == log_b
        assert report_a.delivered == report_b.delivered
        assert report_a.retransmissions == report_b.retransmissions
