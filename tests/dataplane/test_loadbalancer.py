"""The EJ-FAT-style load balancer."""

import pytest

from repro.core import MmtStack, ReceiverConfig, make_experiment_id
from repro.core.modes import pilot_registry
from repro.dataplane import (
    AgeUpdateProgram,
    BufferTapProgram,
    LoadBalancerError,
    LoadBalancerProgram,
    ModeTransitionProgram,
    ProgrammableElement,
    SegmentRecoveryProgram,
    TransitionRule,
)
from repro.netsim import Topology, units

EXP = 23
EXP_ID = make_experiment_id(EXP)


def build(sim, workers=3, window=16, loss=0.0, lb_repairs=False):
    """src - e1(seq+buffer) - lb - {worker0..n}."""
    topo = Topology(sim)
    src = topo.add_host("src", ip="10.0.0.2")
    e1 = ProgrammableElement(sim, "e1", mac=topo.allocate_mac(), ip="10.0.1.1")
    lb = ProgrammableElement(sim, "lb", mac=topo.allocate_mac(), ip="10.0.2.1")
    topo.add(e1)
    topo.add(lb)
    topo.connect(src, e1, units.gbps(10), 10_000)
    topo.connect(e1, lb, units.gbps(10), 10_000, loss_rate=loss)
    worker_hosts = []
    for i in range(workers):
        worker = topo.add_host(f"worker{i}", ip=f"10.0.3.{i + 2}")
        topo.connect(lb, worker, units.gbps(10), 10_000)
        worker_hosts.append(worker)
    topo.install_routes()

    registry = pilot_registry()
    ModeTransitionProgram(registry, [
        TransitionRule(from_config_id=0, to_mode="age-recover",
                       buffer_addr=e1.ip, age_budget_ns=units.seconds(1)),
    ]).install(e1)
    e1.attach_buffer(128 * 1024 * 1024)
    BufferTapProgram(buffer_addr=e1.ip).install(e1)
    AgeUpdateProgram().install(e1)

    recovery = None
    if lb_repairs:
        # The balancer heals upstream losses before striping, so the
        # workers never have to reason about the shared seq space.
        lb.attach_buffer(128 * 1024 * 1024)
        recovery = SegmentRecoveryProgram(
            upstream_buffer_addr=e1.ip,
            config=ReceiverConfig(
                reorder_wait_ns=units.microseconds(200),
                # First retry after initial_rtt x RTT_SAFETY = 5 ms.
                initial_rtt_ns=units.microseconds(2_500),
            ),
        )
        recovery.install(lb)
    balancer = LoadBalancerProgram(
        experiment_id=EXP_ID,
        backends=[w.ip for w in worker_hosts],
        window=window,
    )
    balancer.install(lb)

    src_stack = MmtStack(src, registry)
    received: dict[str, list[int]] = {w.name: [] for w in worker_hosts}
    receivers = {}
    for worker in worker_hosts:
        stack = MmtStack(worker, registry)
        receivers[worker.name] = stack.bind_receiver(
            EXP,
            on_message=lambda p, h, n=worker.name: received[n].append(h.seq),
            # Stripe consumers: the in-between windows belong to peers.
            config=ReceiverConfig(
                initial_rtt_ns=units.milliseconds(1), detect_gaps=False
            ),
        )
    # The sender targets worker0; the balancer re-steers per window.
    sender = src_stack.create_sender(
        experiment_id=EXP_ID, mode="identify", dst_ip=worker_hosts[0].ip
    )
    return topo, sender, balancer, worker_hosts, received, receivers


def send_all(sim, sender, count):
    for _ in range(count):
        sender.send(1000)
    sender.finish()
    sim.run()


class TestSteering:
    def test_windows_are_sticky(self, sim):
        _topo, sender, balancer, workers, received, _rx = build(sim, window=16)
        send_all(sim, sender, 320)
        # Each worker's sequences form whole windows.
        for name, seqs in received.items():
            ticks = {s // 16 for s in seqs}
            assert len(seqs) == 16 * len(ticks), f"{name} got partial windows"
        # Every message landed somewhere, exactly once.
        everything = sorted(s for seqs in received.values() for s in seqs)
        assert everything == list(range(320))

    def test_even_distribution_without_load_skew(self, sim):
        _topo, sender, balancer, workers, received, _rx = build(sim, workers=4, window=8)
        send_all(sim, sender, 640)
        counts = [len(v) for v in received.values()]
        assert max(counts) - min(counts) <= 8  # within one window

    def test_load_reports_skew_assignment(self, sim):
        _topo, sender, balancer, workers, received, _rx = build(sim, workers=2, window=8)
        balancer.report_load(workers[1].ip, 90)  # worker1 nearly full
        send_all(sim, sender, 400)
        assert len(received["worker0"]) > len(received["worker1"]) * 5

    def test_drain_stops_new_windows(self, sim):
        _topo, sender, balancer, workers, received, _rx = build(sim, workers=2, window=8)
        balancer.drain(workers[0].ip)
        send_all(sim, sender, 200)
        assert len(received["worker0"]) == 0
        assert len(received["worker1"]) == 200

    def test_repairs_follow_the_calendar(self, sim):
        """Loss between the sequencer and the balancer: the balancer
        heals it (segment recovery) and repairs are *steered* like
        first-pass data, so each window completes on its one worker."""
        _topo, sender, balancer, workers, received, receivers = build(
            sim, workers=3, window=16, loss=0.05, lb_repairs=True
        )
        send_all(sim, sender, 480)
        # Every message landed exactly once, striped in whole windows.
        everything = sorted(s for seqs in received.values() for s in seqs)
        assert everything == list(range(480))
        for name, seqs in received.items():
            ticks = {s // 16 for s in seqs}
            assert len(seqs) == 16 * len(ticks), f"{name}: split window"
        # The workers never NAK-ed anything: repair was in-network.
        for rx in receivers.values():
            assert rx.stats.naks_sent == 0


class TestControlPlane:
    def test_validation(self):
        with pytest.raises(LoadBalancerError):
            LoadBalancerProgram(EXP_ID, backends=[])
        with pytest.raises(LoadBalancerError):
            LoadBalancerProgram(EXP_ID, backends=["10.0.0.1"], window=0)
        balancer = LoadBalancerProgram(EXP_ID, backends=["10.0.0.1"])
        with pytest.raises(LoadBalancerError):
            balancer.drain("10.9.9.9")

    def test_calendar_pruned(self, sim):
        balancer = LoadBalancerProgram(EXP_ID, backends=["10.0.0.1"],
                                       window=1, calendar_horizon=10)
        for tick in range(100):
            balancer._assign(tick)
        assert len(balancer._calendar) <= 11 + 10

    def test_backend_for_lookup(self, sim):
        _topo, sender, balancer, workers, received, _rx = build(sim, window=8)
        send_all(sim, sender, 16)
        assert balancer.backend_for(0) in {w.ip for w in workers}
        assert balancer.backend_for(0) == balancer.backend_for(7)


class TestLivenessAndRetxPolicy:
    """Regression: a window's backend drained or crashed after binding.

    Pre-policy, the balancer steered retransmissions exactly like
    first-pass DATA, silently following a stale binding into a dead
    backend. Now liveness is explicit (mark_down/mark_up), bound
    windows are remapped on crash, and retransmissions obey
    ``retx_policy`` when they discover a dead binding themselves.
    """

    def two_backends(self, **kwargs) -> LoadBalancerProgram:
        return LoadBalancerProgram(
            EXP_ID, backends=["10.0.3.2", "10.0.3.3"], window=8, **kwargs
        )

    def test_retx_after_drain_stays_on_bound_backend(self):
        balancer = self.two_backends()
        bound = balancer.route(0, 0)
        balancer.drain(bound)
        # Bound windows finish on the draining backend — retx included.
        assert balancer.route(0, 1, is_retx=True) == bound
        assert balancer.route(0, 2) == bound
        # New windows avoid it.
        other = balancer.route(0, 8)
        assert other != bound

    def test_mark_down_remaps_bound_windows(self):
        balancer = self.two_backends()
        first = balancer.route(0, 0)
        epoch = balancer.epoch
        moved = balancer.mark_down(first)
        assert moved == [(0, 0)]
        assert balancer.epoch > epoch
        assert balancer.windows_bound_to(first) == 0
        # First-pass and repair traffic both land on the new owner.
        survivor = balancer.backend_for(0)
        assert survivor != first
        assert balancer.route(0, 1) == survivor
        assert balancer.route(0, 3, is_retx=True) == survivor
        assert balancer.redirects == 1

    def test_retx_rebind_policy_on_stale_dead_binding(self):
        """A binding can still point at a dead backend when the crash
        happened with no live peer to remap to (liveness races the
        table update). Policy "rebind": the retransmission moves the
        window to whatever is alive by the time it arrives."""
        balancer = self.two_backends()
        first = balancer.route(0, 0)
        other = next(a for a in balancer.backends if a != first)
        balancer.mark_down(other)  # lose the spare first
        balancer.mark_down(first)  # nothing live: binding stays put
        assert balancer.backend_for(0) == first
        balancer.mark_up(other)
        assert balancer.route(0, 1, is_retx=True) == other
        assert balancer.retx_rebinds == 1

    def test_retx_follow_policy_preserves_stale_steering(self):
        """Policy "follow" keeps the historical bug observable: the
        retransmission is steered into the dead backend and counted."""
        balancer = self.two_backends(retx_policy="follow")
        first = balancer.route(0, 0)
        other = next(a for a in balancer.backends if a != first)
        balancer.mark_down(other)
        balancer.mark_down(first)
        balancer.mark_up(other)
        assert balancer.route(0, 1, is_retx=True) == first
        assert balancer.follows_dead == 1
        # First-transmission DATA always rebinds regardless of policy.
        assert balancer.route(0, 2) == other
        assert balancer.redirects == 1

    def test_retx_policy_validated(self):
        with pytest.raises(LoadBalancerError):
            self.two_backends(retx_policy="punt")

    def test_mark_down_survivors_absorb_new_windows(self, sim):
        _topo, sender, balancer, workers, received, _rx = build(
            sim, workers=3, window=8
        )
        balancer.mark_down(workers[0].ip)
        send_all(sim, sender, 240)
        assert len(received["worker0"]) == 0
        assert len(received["worker1"]) + len(received["worker2"]) == 240

    def test_steering_log_records_decisions(self):
        balancer = self.two_backends(record_log=True)
        bound = balancer.route(0, 0)
        balancer.route(0, 1)
        balancer.mark_down(bound)
        kinds = [r.kind for r in balancer.steering_log]
        assert kinds == ["bind", "steer", "redirect"]
        # Epoch is stamped on every record: the redirect belongs to the
        # post-mark table generation.
        assert balancer.steering_log[-1].epoch == balancer.epoch
