"""Engine semantics: ordering, cancellation, determinism, timers.

An event is its heap entry; a :class:`Timer` is the one cancellable
thing, so cancellation is exercised through timers.
"""

import pytest

from repro.netsim import Link, Node, Packet, SimulationError, Simulator, Timer


class Spans:
    """A tracer stand-in that keeps the engine's ``engine.compact`` spans."""

    def __init__(self):
        self.compactions = []

    def emit(self, kind, element, before, after):
        assert (kind, element) == ("engine.compact", "engine")
        self.compactions.append((before, after))


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(30, order.append, "c")
    sim.schedule(10, order.append, "a")
    sim.schedule(20, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]


def test_ties_fire_in_scheduling_order():
    sim = Simulator()
    order = []
    for tag in ("first", "second", "third"):
        sim.schedule(5, order.append, tag)
    sim.run()
    assert order == ["first", "second", "third"]


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(42, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [42]
    assert sim.now == 42


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(1))
    timer.start(10)
    timer.stop()
    sim.run()
    assert fired == []
    assert sim.pending_events() == 0


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(10, fired.append, "early")
    sim.schedule(100, fired.append, "late")
    sim.run(until_ns=50)
    assert fired == ["early"]
    assert sim.now == 50  # clock advanced exactly to the bound
    sim.run()
    assert fired == ["early", "late"]


def test_run_until_advances_clock_on_empty_queue():
    sim = Simulator()
    sim.run(until_ns=1000)
    assert sim.now == 1000


def test_max_events_limits_processing():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(i + 1, fired.append, i)
    processed = sim.run(max_events=3)
    assert processed == 3
    assert fired == [0, 1, 2]


def test_events_scheduled_during_run_fire():
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.schedule(5, lambda: order.append("nested"))

    sim.schedule(10, first)
    sim.run()
    assert order == ["first", "nested"]


def test_named_rng_streams_are_independent_and_stable():
    sim1 = Simulator(seed=9)
    sim2 = Simulator(seed=9)
    a1 = [sim1.rng("a").random() for _ in range(5)]
    # Interleaving another stream must not perturb stream "a".
    sim2.rng("b").random()
    a2 = [sim2.rng("a").random() for _ in range(5)]
    assert a1 == a2


def test_different_seeds_differ():
    assert Simulator(seed=1).rng("x").random() != Simulator(seed=2).rng("x").random()


def test_float_delays_round_to_integer_clock():
    """Float delays land on the integer-ns clock via round() — pinned
    here because schedule() fast-paths int delays past the rounding."""
    sim = Simulator()
    fired = []
    sim.schedule(1.6, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [2]
    # Banker's rounding (Python round-half-to-even), same as before the
    # int fast path: 2.5 → 2, 3.5 → 4.
    sim2 = Simulator()
    times = []
    sim2.schedule(2.5, lambda: times.append(sim2.now))
    sim2.schedule(3.5, lambda: times.append(sim2.now))
    sim2.run()
    assert times == [2, 4]


def test_schedule_at_float_time_rounds():
    sim = Simulator()
    fired = []
    sim.schedule_at(7.5, lambda: fired.append(sim.now))  # half-to-even
    sim.run()
    assert fired == [8]


def test_pending_events_is_exact_under_cancellation():
    sim = Simulator()
    timers = [Timer(sim, lambda: None) for _ in range(10)]
    for i, timer in enumerate(timers):
        timer.start(i + 1)
    assert sim.pending_events() == 10
    for timer in timers[:4]:
        timer.stop()
    assert sim.pending_events() == 6
    timers[0].stop()  # a second stop must not count twice
    assert sim.pending_events() == 6
    sim.run()
    assert sim.pending_events() == 0
    assert sim.events_processed == 6


def test_mass_cancellation_compacts_queue():
    """Cancelled entries may linger in the heap (lazy deletion) but never
    come to outnumber live ones in a large heap: the mass timer-restart
    pattern must not leak. With 10 live entries the heap is compacted
    each time it reaches 64 (the threshold) with 54 dead, back to the 10."""
    sim = Simulator()
    sim.tracer = spans = Spans()
    keepers = 10
    restarts = 2000
    for i in range(keepers):
        sim.schedule(10_000 + i, lambda: None)
    heap = sim.heap
    timer = Timer(sim, lambda: None)
    for i in range(restarts):
        timer.start(100 + i)
    timer.stop()
    assert sim.pending_events() == keepers
    assert spans.compactions == [(64, 10)] * (restarts // 54)
    assert sim.heap is heap  # compacted in place
    assert len(sim.heap) <= 2 * keepers + 1
    assert sim.run() == keepers


def test_cancellation_during_run_is_safe():
    """A callback cancelling en masse (triggering compaction) must not
    lose events scheduled after it."""
    sim = Simulator()
    fired = []
    victims = [Timer(sim, lambda: None) for _ in range(200)]
    for i, victim in enumerate(victims):
        victim.start(500 + i)

    def purge_and_reschedule():
        for victim in victims:
            victim.stop()
        sim.schedule(50, fired.append, "after-purge")

    sim.schedule(10, purge_and_reschedule)
    sim.schedule(2000, fired.append, "tail")
    sim.run()
    assert fired == ["after-purge", "tail"]
    assert sim.pending_events() == 0


class Sink(Node):
    def receive(self, packet, port) -> None:
        self.got = self.sim.now


def test_a_ports_pushed_entry_and_a_scheduled_one_tie_in_scheduling_order():
    """A port pushes its tx-done straight onto the heap; at a tie it still
    fires between what was scheduled before and after the send."""
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    # A bare 0-byte frame is 20 wire bytes: 160 bits at 160 Gb/s is 1 ns.
    link = Link(sim, a.add_port("p"), b.add_port("p"), 160_000_000_000, 0)
    seen = []
    sim.schedule(1, lambda: seen.append(("before", link.stats.delivered)))
    link.ends[0].send(Packet())
    sim.schedule(1, lambda: seen.append(("after", link.stats.delivered)))
    sim.run()
    assert seen == [("before", 0), ("after", 1)]
    assert b.got == 1  # the delivery, pushed at the tx-done, fired after both


def test_a_cancelled_head_past_the_horizon_is_popped_and_not_counted():
    sim = Simulator()
    timer = Timer(sim, lambda: None)
    timer.start(100)
    timer.stop()
    sim.schedule(200, lambda: None)
    assert (len(sim.heap), sim.pending_events()) == (2, 1)
    assert sim.run(until_ns=50) == 0
    assert (len(sim.heap), sim.pending_events()) == (1, 1)  # the dead head went
    assert sim.run() == 1 and sim.events_processed == 1


def test_replay_is_deterministic():
    """Same seed + same schedule → identical event interleaving and
    identical RNG draws, twice over (the regression replay guard)."""

    def run_once():
        sim = Simulator(seed=31)
        trace = []
        rng = sim.rng("loss")

        def tick(tag, count):
            trace.append((sim.now, tag, round(rng.random(), 12)))
            if count:
                sim.schedule(1 + (count * 7) % 13, tick, tag, count - 1)

        sim.schedule(1, tick, "a", 50)
        sim.schedule(1, tick, "b", 50)
        sim.schedule(3, tick, "c", 50)
        sim.run()
        return trace, sim.events_processed, sim.now

    assert run_once() == run_once()


class TestTimer:
    def test_fires_after_delay(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(100)
        sim.run()
        assert fired == [100]
        assert not timer.running

    def test_stop_prevents_firing(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(1))
        timer.start(100)
        timer.stop()
        sim.run()
        assert fired == []

    def test_restart_supersedes_previous(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(100)
        timer.start(500)
        sim.run()
        assert fired == [500]

    def test_expires_at_reports_deadline(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        timer.start(250)
        assert timer.expires_at == 250
        timer.stop()
        assert timer.expires_at is None

    def test_running_and_expires_at_across_start_restart_stop_and_fire(self):
        sim = Simulator()
        seen = []
        timer = Timer(sim, lambda: seen.append((timer.running, timer.expires_at)))
        assert (timer.running, timer.expires_at) == (False, None)
        timer.start(100)
        assert (timer.running, timer.expires_at) == (True, 100)
        sim.run(until_ns=40)
        timer.start(100)  # restart
        assert (timer.running, timer.expires_at) == (True, 140)
        timer.stop()
        assert (timer.running, timer.expires_at) == (False, None)
        timer.stop()
        timer.start(10)
        sim.run()
        assert seen == [(False, None)]  # not running while its callback runs
        assert (timer.running, timer.expires_at, sim.now) == (False, None, 50)

    def test_timer_can_rearm_itself(self):
        sim = Simulator()
        fired = []

        def tick():
            fired.append(sim.now)
            if len(fired) < 3:
                timer.start(10)

        timer = Timer(sim, tick)
        timer.start(10)
        sim.run()
        assert fired == [10, 20, 30]
