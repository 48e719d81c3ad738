"""Sampler unit + integration tests: scheduling idiom, determinism,
ring bounds, and the zero-overhead disabled twin."""

import dataclasses

import pytest

from repro.dataplane import PilotConfig, PilotTestbed
from repro.netsim import Simulator
from repro.obs import Sampler, series_digest
from repro.trace import trace_digest


def make_sampler(every_ns=1_000, **kwargs):
    return Sampler(Simulator(seed=1), every_ns=every_ns, **kwargs)


# -- construction & validation ------------------------------------------------


def test_rejects_bad_parameters():
    sim = Simulator(seed=1)
    with pytest.raises(ValueError):
        Sampler(sim, every_ns=0)
    with pytest.raises(ValueError):
        Sampler(sim, every_ns=-5)
    with pytest.raises(ValueError):
        Sampler(sim, every_ns=10, capacity=0)
    with pytest.raises(ValueError):
        Sampler(sim, every_ns=10, start_ns=100, end_ns=50)


def test_record_and_series_access():
    sampler = make_sampler()
    sampler.record("queue_bytes", 10, node="u280", port="out")
    sampler.record("queue_bytes", 20, node="u280", port="out")
    sampler.record("queue_bytes", 5, node="dtn1", port="out")
    series = sampler.series("queue_bytes", node="u280", port="out")
    assert series.values() == [10, 20]
    assert series.name == "queue_bytes{node=u280,port=out}"
    assert sampler.sample_emits == 3
    assert len(sampler) == 2
    # Label order in the call does not matter — keys are sorted.
    assert sampler.series("queue_bytes", port="out", node="u280") is series


def test_all_series_deterministic_order():
    sampler = make_sampler()
    sampler.record("b_metric", 1)
    sampler.record("a_metric", 1, z="9")
    sampler.record("a_metric", 1, a="1")
    names = [s.name for s in sampler.all_series()]
    assert names == ["a_metric{a=1}", "a_metric{z=9}", "b_metric"]


def test_ring_eviction_counts():
    sampler = make_sampler(capacity=3)
    for value in range(5):
        sampler.record("m", value)
    series = sampler.series("m")
    assert series.values() == [2, 3, 4]
    assert series.evicted == 2
    assert series.emitted == 5
    assert sampler.evictions == 2


# -- self-scheduling (LinkDynamics idiom) -------------------------------------


def test_arm_keeps_exactly_one_pending_event():
    sim = Simulator(seed=1)
    sampler = Sampler(sim, every_ns=100, end_ns=1_000)
    sampler.watch("tick", lambda: 1)
    sim.schedule(2_000, lambda: None)  # keep the heap non-empty
    sampler.arm()
    with pytest.raises(RuntimeError):
        sampler.arm()
    assert sim.pending_events() == 2  # workload event + the one tick
    sim.run()
    # Bounded horizon: ticks at 0,100,...,1000 then stops itself.
    assert sampler.ticks == 11
    assert not sampler.armed


def test_arm_rejects_start_in_the_past():
    sim = Simulator(seed=1)
    sim.schedule(10, lambda: None)
    sim.run()
    sampler = Sampler(sim, every_ns=100, start_ns=0)
    with pytest.raises(RuntimeError):
        sampler.arm()


def test_stops_when_workload_quiesces():
    """run() without a horizon must terminate: the sampler sees its own
    event already popped, so an empty heap means nothing left to watch."""
    sim = Simulator(seed=1)
    sampler = Sampler(sim, every_ns=100)
    sampler.watch("m", lambda: 1)
    sim.schedule(350, lambda: None)  # workload ends at t=350
    sampler.arm()
    sim.run()
    # Ticks at 0,100,200,300; at 400 the heap is empty -> auto-stop.
    assert sampler.ticks == 5
    assert not sampler.armed
    assert sim.pending_events() == 0


def test_unarmed_sample_now_schedules_nothing():
    sim = Simulator(seed=1)
    sampler = Sampler(sim, every_ns=100)
    sampler.watch("m", lambda: 7)
    sampler.sample_now()
    sampler.sample_now()
    assert sim.pending_events() == 0
    assert sampler.series("m").values() == [7, 7]
    assert sampler.ticks == 2


# -- pilot integration: determinism & zero overhead ---------------------------

SEED = 7
MESSAGES = 48


def run_pilot(sample_every_ns=None):
    pilot = PilotTestbed(
        sim=Simulator(seed=SEED),
        config=PilotConfig(trace=True, sample_every_ns=sample_every_ns),
    )
    pilot.send_stream(MESSAGES, payload_size=4000, interval_ns=2000)
    pilot.run()
    return pilot


def test_pilot_series_deterministic_across_runs():
    digests = {series_digest(run_pilot(50_000).sampler) for _ in range(2)}
    assert len(digests) == 1


def test_sampler_observes_never_steers():
    """The sampled run's report and flight-recorder digest are identical
    to the sampler-free twin: probes read state, never mutate it."""
    off = run_pilot(None)
    on = run_pilot(50_000)
    assert off.sampler is None
    assert on.sampler is not None and len(on.sampler) > 0
    assert dataclasses.asdict(on.report()) == dataclasses.asdict(off.report())
    assert trace_digest(on.tracer.events()) == trace_digest(off.tracer.events())


def test_disabled_twin_has_no_sampler_state():
    pilot = run_pilot(None)
    assert pilot.sampler is None
