"""Time-varying link dynamics: trajectories, reconfigure, drift.

Covers the dynamics layer end to end: :class:`Trajectory` curves as
pure functions of the engine clock, :meth:`Link.reconfigure` semantics
and its stats/trace side effects, the self-scheduling
:class:`LinkDynamics` driver landing exactly on the clock, scheduled
Gilbert–Elliott parameter drift preserving the replay contract, and
the new link series in the telemetry scrape.
"""

import pytest

from repro.faults import FaultInjector, FaultPlan, GilbertElliottLoss, LinkDynamics, Trajectory
from repro.netsim import units
from repro.telemetry.collect import link_rows
from tests.conftest import TwoHostRig


class RecordingTracer:
    """Just enough of the Tracer surface for a Link: records emits."""

    def __init__(self):
        self.events = []

    def emit(self, kind, element, *args, **attrs):
        self.events.append((kind, element, attrs))

    def packet_event(self, kind, element, packet, **attrs):
        self.events.append((kind, element, attrs))


class TestTrajectory:
    def test_step_holds_and_switches_at_waypoints(self):
        curve = Trajectory([(100, 5.0), (200, 9.0)])
        assert curve.value_at(0) == 5.0  # before the first waypoint: hold
        assert curve.value_at(99) == 5.0
        assert curve.value_at(100) == 5.0
        assert curve.value_at(199) == 5.0
        assert curve.value_at(200) == 9.0
        assert curve.value_at(10**9) == 9.0  # flat forever after

    def test_linear_interpolates_and_is_flat_past_the_end(self):
        curve = Trajectory([(0, 0.0), (100, 10.0)], interpolate="linear")
        assert curve.value_at(0) == 0.0
        assert curve.value_at(50) == 5.0
        assert curve.value_at(100) == 10.0
        assert curve.value_at(500) == 10.0

    def test_periodic_repeats_and_closes_the_loop(self):
        curve = Trajectory(
            [(0, 0.0), (100, 10.0)], interpolate="linear", period_ns=200
        )
        # Linear periodic curves interpolate from the last waypoint back
        # to the first value at the period boundary.
        assert curve.value_at(150) == 5.0
        for t in (0, 37, 100, 150, 199):
            assert curve.value_at(t) == curve.value_at(t + 200)
            assert curve.value_at(t) == curve.value_at(t + 7 * 200)

    def test_diurnal_low_at_origin_high_at_half_period(self):
        day = units.seconds(1)
        curve = Trajectory.diurnal(low=100, high=200, period_ns=day)
        assert curve.value_at(0) == 100.0
        assert curve.value_at(day // 2) == 200.0
        assert curve.value_at(day) == 100.0  # next "morning"

    def test_validation(self):
        with pytest.raises(ValueError):
            Trajectory([])
        with pytest.raises(ValueError):
            Trajectory([(0, 1.0)], interpolate="cubic")
        with pytest.raises(ValueError):
            Trajectory([(-1, 1.0)])
        with pytest.raises(ValueError):
            Trajectory([(0, 1.0), (0, 2.0)])  # not strictly increasing
        with pytest.raises(ValueError):
            Trajectory([(0, 1.0), (100, 2.0)], period_ns=100)  # period <= last
        with pytest.raises(ValueError):
            Trajectory([(10, 1.0)], period_ns=100)  # periodic must start at 0
        with pytest.raises(ValueError):
            Trajectory([(0, 1.0)]).value_at(-5)
        with pytest.raises(ValueError):
            Trajectory.diurnal(low=0, high=1, period_ns=10**9, steps=1)

    def test_change_times_step_is_boundaries_only(self):
        curve = Trajectory([(0, 1.0), (300, 2.0), (700, 3.0)])
        assert curve.change_times(0, 1000, sample_every_ns=50) == [0, 300, 700]
        # Window selection is inclusive on both ends.
        assert curve.change_times(300, 700, sample_every_ns=50) == [300, 700]
        assert curve.change_times(301, 699, sample_every_ns=50) == []

    def test_change_times_linear_samples_anchor_at_segment_start(self):
        curve = Trajectory([(0, 0.0), (100, 1.0)], interpolate="linear")
        # Samples are spaced from each boundary, so the boundary at 100
        # is hit exactly even though 30 does not divide 100.
        times = curve.change_times(0, 100, sample_every_ns=30)
        assert times == [0, 30, 60, 90, 100]
        # Past the last waypoint a non-periodic linear curve is flat:
        # nothing to sample out there.
        assert curve.change_times(0, 10**6, sample_every_ns=30) == [0, 30, 60, 90, 100]

    def test_change_times_periodic_repeats_every_cycle(self):
        curve = Trajectory([(0, 1.0), (60, 2.0)], period_ns=100)
        assert curve.change_times(0, 250, sample_every_ns=10**9) == [
            0, 60, 100, 160, 200,
        ]

    def test_change_times_validation(self):
        curve = Trajectory([(0, 1.0)])
        with pytest.raises(ValueError):
            curve.change_times(0, 100, sample_every_ns=0)
        with pytest.raises(ValueError):
            curve.change_times(100, 0, sample_every_ns=10)


class TestLinkReconfigure:
    def test_rate_change_bumps_stats_and_current_rate(self, sim):
        rig = TwoHostRig(sim)
        link = rig.link_b
        before = link.rate_bps
        assert link.stats.current_rate_bps == before
        assert link.reconfigure(rate_bps=before // 2)
        assert link.rate_bps == before // 2
        assert link.stats.rate_changes == 1
        assert link.stats.delay_changes == 0
        assert link.stats.current_rate_bps == before // 2

    def test_noop_reconfigure_counts_nothing(self, sim):
        rig = TwoHostRig(sim)
        link = rig.link_b
        assert not link.reconfigure(
            rate_bps=link.rate_bps,
            propagation_delay_ns=link.propagation_delay_ns,
            loss_rate=link.loss_rate,
        )
        assert link.stats.rate_changes == 0
        assert link.stats.delay_changes == 0

    def test_delay_and_loss_changes(self, sim):
        rig = TwoHostRig(sim)
        link = rig.link_b
        assert link.reconfigure(propagation_delay_ns=link.propagation_delay_ns * 2)
        assert link.stats.delay_changes == 1
        assert link.reconfigure(loss_rate=0.25)
        assert link.loss_rate == 0.25
        # Loss-rate changes are not a rate/delay stat.
        assert link.stats.rate_changes == 0

    def test_validation_matches_construction(self, sim):
        rig = TwoHostRig(sim)
        with pytest.raises(ValueError):
            rig.link_b.reconfigure(rate_bps=0)
        with pytest.raises(ValueError):
            rig.link_b.reconfigure(propagation_delay_ns=-1)
        with pytest.raises(ValueError):
            rig.link_b.reconfigure(loss_rate=1.0)

    def test_reconfig_emits_trace_span(self, sim):
        rig = TwoHostRig(sim)
        link = rig.link_b
        link.tracer = tracer = RecordingTracer()
        link.reconfigure(rate_bps=link.rate_bps // 2)
        assert [(k, e) for k, e, _ in tracer.events] == [("link.reconfig", link.name)]
        _, _, attrs = tracer.events[0]
        assert attrs == {
            "rate_bps": link.rate_bps, "delay_ns": link.propagation_delay_ns,
        }
        # A no-op application stays silent.
        link.reconfigure(rate_bps=link.rate_bps)
        assert len(tracer.events) == 1

    def test_scrape_exports_dynamics_series(self, sim):
        rig = TwoHostRig(sim)
        link = rig.link_b
        link.reconfigure(rate_bps=link.rate_bps // 2, propagation_delay_ns=1)
        rows = {name: (kind, labels, read()) for kind, name, labels, read in link_rows(link)}
        labels = {"link": link.name}
        assert rows["link_rate_changes_total"] == ("counter", labels, 1)
        assert rows["link_delay_changes_total"] == ("counter", labels, 1)
        assert rows["link_current_rate_bps"] == ("gauge", labels, link.rate_bps)


class TestLinkDynamics:
    def test_needs_a_trajectory(self, sim):
        rig = TwoHostRig(sim)
        with pytest.raises(ValueError):
            LinkDynamics(rig.link_b)

    def test_applies_exactly_on_the_engine_clock(self, sim):
        rig = TwoHostRig(sim)
        link = rig.link_b
        r0 = link.rate_bps
        dynamics = LinkDynamics(
            link,
            rate_bps=Trajectory([(0, r0), (1000, r0 // 2), (2000, r0)]),
            start_ns=500,
        )
        dynamics.arm()
        sim.run(until_ns=1499)
        assert link.rate_bps == r0  # waypoint 1000 applies at 500+1000
        sim.run(until_ns=1500)
        assert link.rate_bps == r0 // 2
        sim.run()
        assert link.rate_bps == r0
        assert dynamics.applied == len(dynamics) == 3
        assert link.stats.rate_changes == 2  # the t=0 application is a no-op

    def test_bounded_horizon_terminates(self, sim):
        rig = TwoHostRig(sim)
        link = rig.link_b
        day = units.seconds(2)
        dynamics = LinkDynamics(
            link,
            rate_bps=Trajectory.diurnal(
                low=link.rate_bps // 2, high=link.rate_bps, period_ns=day
            ),
            end_ns=day,
            sample_every_ns=day // 48,
        )
        dynamics.arm()
        sim.run()  # to quiescence: must not hang on a periodic curve
        assert sim.now <= day
        assert dynamics.applied == len(dynamics)

    def test_double_arm_and_past_start_rejected(self, sim):
        rig = TwoHostRig(sim)
        dynamics = LinkDynamics(rig.link_b, rate_bps=Trajectory([(0, 1000)]))
        dynamics.arm()
        with pytest.raises(RuntimeError):
            dynamics.arm()
        sim.run()
        late = LinkDynamics(rig.link_b, rate_bps=Trajectory([(0, 1000)]), start_ns=0)
        if sim.now > 0:
            with pytest.raises(ValueError):
                late.arm()

    def test_plan_carries_dynamics(self, sim):
        rig = TwoHostRig(sim)
        link = rig.link_b
        r0 = link.rate_bps
        plan = FaultPlan().link_dynamics(
            LinkDynamics(link, rate_bps=Trajectory([(0, r0), (700, r0 // 4)]))
        )
        FaultInjector(sim, plan).arm()
        sim.run()
        assert link.rate_bps == r0 // 4
        assert link.stats.rate_changes == 1


class TestGilbertElliottDrift:
    def test_set_params_validates_and_counts(self):
        model = GilbertElliottLoss(0.01, 0.3, 0.0, 0.5)
        model.set_params(p_good_to_bad=0.05, loss_bad=0.7)
        assert model.p_good_to_bad == 0.05
        assert model.loss_bad == 0.7
        assert model.p_bad_to_good == 0.3  # untouched
        assert model.drifts == 1
        with pytest.raises(ValueError):
            model.set_params(loss_bad=1.5)
        assert model.drifts == 1  # failed drift did not count

    def test_set_params_preserves_regime_state(self):
        model = GilbertElliottLoss(0.01, 0.3, 0.0, 0.5)
        model.in_bad = True
        model.set_params(loss_bad=0.9)
        assert model.in_bad

    def test_plan_ge_drift_validates_eagerly(self, sim):
        model = GilbertElliottLoss(0.01, 0.3, 0.0, 0.5)
        with pytest.raises(ValueError):
            FaultPlan().ge_drift(model, [(100, {"loss_bad": 2.0})])
        with pytest.raises(ValueError):
            FaultPlan().ge_drift(model, [(100, {"no_such_param": 0.5})])

    def test_plan_ge_drift_fires_in_order(self, sim):
        model = GilbertElliottLoss(0.01, 0.3, 0.0, 0.5)
        plan = FaultPlan().ge_drift(
            model,
            [(100, {"loss_bad": 0.7}), (200, {"loss_bad": 0.2})],
        )
        injector = FaultInjector(sim, plan)
        injector.arm()
        sim.run(until_ns=150)
        assert model.loss_bad == 0.7
        sim.run()
        assert model.loss_bad == 0.2
        assert model.drifts == 2

