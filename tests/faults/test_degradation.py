"""Resilience mechanics: sender mode degradation and element restart."""

from repro.core import BufferDirectory, MmtStack, make_experiment_id
from repro.core.endpoint import MAX_BUFFER_RECHECKS
from repro.netsim import units
from tests.conftest import TwoHostRig

EXP = 9
EXP_ID = make_experiment_id(EXP)


def build_degradable(sim, rig):
    """Sender at a with a local, directory-registered buffer; receiver at b."""
    stack_a = MmtStack(rig.a)
    stack_b = MmtStack(rig.b)
    stack_a.attach_buffer(1024 * 1024)
    directory = BufferDirectory()
    directory.register(rig.a.ip, path_position=0, experiments={EXP_ID})
    got = []
    stack_b.bind_receiver(EXP, on_message=lambda p, h: got.append(h))
    sender = stack_a.create_sender(
        experiment_id=EXP_ID,
        mode="age-recover",
        dst_ip=rig.b.ip,
        age_budget_ns=units.seconds(10),
        buffer_local=True,
        directory=directory,
        path_position=0,
        degraded_mode="identify",
    )
    return stack_a, stack_b, directory, sender, got


class TestSenderDegradation:
    def test_degrades_when_no_live_buffer_and_recovers(self, sim):
        stack_a, stack_b, directory, sender, got = build_degradable(sim, TwoHostRig(sim))
        for _ in range(5):
            sender.send(1000)
        sim.run()
        assert not sender.degraded
        assert all(h.config_id == sender.mode.config_id for h in got)

        directory.mark_down(stack_a.host.ip)
        for _ in range(5):
            sender.send(1000)
        # Bounded run: long enough to deliver, short of the first
        # buffer re-check (which would burn through the give-up budget
        # while the buffer is still down).
        sim.run(until_ns=sim.now + units.milliseconds(1))
        assert sender.degraded
        assert sender.stats.mode_degradations == 1
        # Degraded messages still flow — identification-only, no seq.
        assert len(got) == 10
        assert all(h.config_id == 0 for h in got[5:])
        # The receiving endpoint was told about the mode change.
        assert len(stack_b.mode_announcements.get(EXP_ID, [])) == 1

        # Buffer comes back: the periodic re-check upgrades the sender.
        directory.mark_up(stack_a.host.ip)
        sim.run(until_ns=sim.now + units.milliseconds(5))
        assert not sender.degraded
        assert sender.stats.mode_upgrades == 1
        sender.send(1000)
        sim.run()
        assert got[-1].config_id == sender.mode.config_id
        assert stack_b.mode_announcements[EXP_ID][-1].config_id == sender.mode.config_id

    def test_gives_up_rechecking_boundedly(self, sim):
        stack_a, stack_b, directory, sender, got = build_degradable(sim, TwoHostRig(sim))
        directory.mark_down(stack_a.host.ip)
        sender.send(1000)
        sim.run(until_ns=units.seconds(30))
        assert sender.degraded
        assert sender.stats.degraded_final == 1
        assert sender.stats.buffer_rechecks_failed == MAX_BUFFER_RECHECKS
        # The re-check timer stopped: no eternal polling.
        sim.run()
        assert sim.pending_events() == 0

    def test_degradation_counters_scraped_into_telemetry(self, sim):
        from repro.telemetry import MetricsRegistry
        from repro.telemetry.collect import scrape_sender

        stack_a, stack_b, directory, sender, got = build_degradable(sim, TwoHostRig(sim))
        directory.mark_down(stack_a.host.ip)
        sender.send(1000)
        sim.run()
        registry = MetricsRegistry()
        scrape_sender(sender, registry, host="a")
        assert registry.counter("mmt_tx_mode_degradations", host="a").value == 1


class TestElementRestart:
    def build_pilot(self):
        from repro.dataplane import PilotConfig, PilotTestbed
        from repro.netsim import Simulator

        return PilotTestbed(
            sim=Simulator(seed=5),
            config=PilotConfig(wan_delay_ns=units.microseconds(50)),
        )

    def test_crash_drops_traffic_and_restart_recovers(self):
        pilot = self.build_pilot()
        pilot.send_stream(20, payload_size=2000, interval_ns=10_000)
        pilot.sim.schedule(50_000, pilot.tofino.crash)
        pilot.sim.schedule(150_000, pilot.tofino.restart)
        report = pilot.run()
        assert pilot.tofino.stats.crashes == 1
        assert pilot.tofino.stats.restarts == 1
        assert pilot.tofino.stats.dropped_failed > 0
        # End-of-run reconciliation recovered everything via the U280.
        assert report.complete

    def test_restart_clears_stateful_registers(self):
        pilot = self.build_pilot()
        pilot.send_stream(10, payload_size=2000, interval_ns=10_000)
        pilot.run()
        seq_register = pilot.u280.pipeline.register("mode_transition_seq")
        index = pilot.experiment_id % seq_register.size
        assert seq_register.read(index) == 10  # assigned 10 sequence numbers
        pilot.u280.crash()
        pilot.u280.restart()
        assert seq_register.read(index) == 0
        assert pilot.u280.buffer is not None
        assert len(pilot.u280.buffer) == 0  # HBM contents gone
        assert not pilot.u280.buffer.failed  # but alive again

    def test_crash_is_idempotent_and_restart_needs_crash(self):
        pilot = self.build_pilot()
        pilot.tofino.crash()
        pilot.tofino.crash()
        assert pilot.tofino.stats.crashes == 1
        pilot.tofino.restart()
        pilot.tofino.restart()
        assert pilot.tofino.stats.restarts == 1
