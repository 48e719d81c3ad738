"""A11 — §5.3's inspiration: EJ-FAT-style farm distribution.

A sequenced DAQ stream is striped over a processing farm by sequence
window (EJ-FAT's event tick), with the balancer healing upstream loss
before striping. Reported: per-worker share, window integrity (no
event split across nodes), behaviour when a node reports high fill and
when one is drained mid-run — the operations JLab's balancer exists
to support.
"""

from __future__ import annotations

from repro.analysis import ResultTable
from repro.core import MmtStack, ReceiverConfig, make_experiment_id
from repro.core.modes import pilot_registry
from repro.dataplane import (
    AgeUpdateProgram,
    BufferTapProgram,
    LoadBalancerProgram,
    ModeTransitionProgram,
    ProgrammableElement,
    SegmentRecoveryProgram,
    TransitionRule,
)
from repro.netsim import Simulator, Topology, units
from repro.netsim.units import MILLISECOND

EXP = 23
EXP_ID = make_experiment_id(EXP)
WORKERS = 4
WINDOW = 32
MESSAGES = 3200


def run_farm(drain_at_message: int | None = None, hot_worker: int | None = None):
    sim = Simulator(seed=64)
    topo = Topology(sim)
    src = topo.add_host("src", ip="10.0.0.2")
    e1 = ProgrammableElement(sim, "e1", mac=topo.allocate_mac(), ip="10.0.1.1")
    lb = ProgrammableElement(sim, "lb", mac=topo.allocate_mac(), ip="10.0.2.1")
    topo.add(e1)
    topo.add(lb)
    topo.connect(src, e1, units.gbps(10), 10_000)
    topo.connect(e1, lb, units.gbps(10), 100_000, loss_rate=0.02)
    workers = []
    for i in range(WORKERS):
        worker = topo.add_host(f"worker{i}", ip=f"10.0.3.{i + 2}")
        topo.connect(lb, worker, units.gbps(10), 10_000)
        workers.append(worker)
    topo.install_routes()

    registry = pilot_registry()
    ModeTransitionProgram(registry, [
        TransitionRule(from_config_id=0, to_mode="age-recover",
                       buffer_addr=e1.ip, age_budget_ns=units.seconds(1)),
    ]).install(e1)
    e1.attach_buffer(512 * 1024 * 1024)
    BufferTapProgram(buffer_addr=e1.ip).install(e1)
    AgeUpdateProgram().install(e1)
    lb.attach_buffer(512 * 1024 * 1024)
    SegmentRecoveryProgram(
        upstream_buffer_addr=e1.ip,
        config=ReceiverConfig(
            reorder_wait_ns=units.microseconds(200),
            # First retry after initial_rtt x RTT_SAFETY = 2 ms.
            initial_rtt_ns=1 * MILLISECOND,
        ),
    ).install(lb)
    balancer = LoadBalancerProgram(
        experiment_id=EXP_ID, backends=[w.ip for w in workers], window=WINDOW
    )
    balancer.install(lb)
    if hot_worker is not None:
        balancer.report_load(workers[hot_worker].ip, 95)

    src_stack = MmtStack(src, registry)
    received = {w.name: [] for w in workers}
    for worker in workers:
        stack = MmtStack(worker, registry)
        stack.bind_receiver(
            EXP,
            on_message=lambda p, h, n=worker.name: received[n].append(h.seq),
            config=ReceiverConfig(detect_gaps=False),
        )
    sender = src_stack.create_sender(
        experiment_id=EXP_ID, mode="identify", dst_ip=workers[0].ip
    )
    for i in range(MESSAGES):
        sim.schedule(i * 5_000, sender.send, 2000)
        if drain_at_message is not None and i == drain_at_message:
            sim.schedule(i * 5_000, balancer.drain, workers[0].ip)
    sim.schedule(MESSAGES * 5_000, sender.finish)
    sim.run()
    return received, balancer


def run_all():
    return {
        "even": run_farm(),
        "hot": run_farm(hot_worker=1),
        "drain": run_farm(drain_at_message=MESSAGES // 2),
    }


def test_ejfat_farm_distribution(once):
    results = once(run_all)
    table = ResultTable(
        f"A11 — EJ-FAT-style striping over {WORKERS} workers "
        f"({MESSAGES} msgs, window {WINDOW}, 2% upstream loss healed at the LB)",
        ["Scenario"] + [f"worker{i}" for i in range(WORKERS)] + ["Complete", "Split windows"],
    )
    for name, (received, _balancer) in results.items():
        everything = sorted(s for seqs in received.values() for s in seqs)
        complete = everything == list(range(MESSAGES))
        split = 0
        for seqs in received.values():
            ticks = {s // WINDOW for s in seqs}
            if len(seqs) != WINDOW * len(ticks):
                split += 1
        table.add_row(
            name,
            *[len(received[f"worker{i}"]) for i in range(WORKERS)],
            "yes" if complete else "NO",
            split,
        )
        assert complete, f"{name}: stream incomplete"
        assert split == 0, f"{name}: a window was split across workers"
    table.show()

    even, _ = results["even"]
    counts = [len(v) for v in even.values()]
    assert max(counts) - min(counts) <= WINDOW  # even within one window

    hot, _ = results["hot"]
    assert len(hot["worker1"]) < min(
        len(hot[f"worker{i}"]) for i in (0, 2, 3)
    ) / 5, "hot worker must be avoided"

    drain, _ = results["drain"]
    # worker0 got roughly half its fair share: windows bound before the
    # drain still flowed, new ones went elsewhere.
    assert len(drain["worker0"]) < MESSAGES // WORKERS * 0.7
    assert len(drain["worker0"]) > 0
