"""Incast head-to-head harness: MMT vs TCP vs UDP on an ECN leaf-spine.

The paper's Fig. 2 claim — multi-modal transport beats TCP-tuned-DTN
and raw UDP on flow completion time once *queues*, not loss, dominate —
needs a workload where the bottleneck is a fan-in switch port, not a
lossy WAN. This module builds exactly that:

- an N→1 incast over :func:`repro.netsim.topology.build_leaf_spine`,
  receiver pinned to the first host of the first leaf;
- Fixed-K RED/ECN (``minth == maxth == K``, mark-don't-drop for ECT)
  on every switch port, one seeded RNG stream per port;
- three interchangeable transport drivers under identical load:

  =========  =====================================================
  transport  congestion reaction
  =========  =====================================================
  ``mmt``    ECN-paced mode (config 7): receiver echoes CE marks as
             backpressure advising ``rate × β``; the driver raises
             the pace multiplicatively between marks (AIMD).
  ``tcp``    RFC 3168 ECE/CWR echo into the congestion controller
             (DTN-tuned min RTO; CUBIC by default).
  ``udp``    none — open-loop pacing; what the AQM drops stays lost.
  =========  =====================================================

Everything is a pure function of :class:`IncastConfig` (picklable), so
cells fan across cores via :mod:`repro.analysis.shard` and the merged
grid is byte-identical for every job count.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ..analysis.fct import FctCollector, FctSummary
from ..baselines.tcp import TcpConfig, TcpStack
from ..baselines.udp import UdpStack, remote_address
from ..core.endpoint import PACE_RECOVERY_FACTOR, MmtStack, ReceiverConfig, SenderConfig
from ..core.features import AckScheme, Feature
from ..core.header import make_experiment_id
from ..core.modes import Mode, ModeRegistry, extended_registry
from ..netsim.engine import Simulator, Timer
from ..netsim.queues import RedQueue
from ..netsim.topology import LeafSpine, LeafSpineSpec, build_leaf_spine
from ..netsim.units import MICROSECOND, MILLISECOND, SECOND


class IncastError(ValueError):
    """Raised for invalid incast configurations."""


#: Wire mode id of the ECN-paced MMT mode (registered per-harness, not
#: in the shared registries: existing registry-shape tests stay put).
ECN_PACED_CONFIG_ID = 7


def incast_registry() -> ModeRegistry:
    """The extended registry plus the ECN-paced congestion mode."""
    registry = extended_registry()
    registry.register(
        Mode(
            config_id=ECN_PACED_CONFIG_ID,
            name="ecn-paced",
            features=(
                Feature.SEQUENCED
                | Feature.RETRANSMISSION
                | Feature.PACING
                | Feature.BACKPRESSURE
                | Feature.CONGESTION_CONTROL
            ),
            ack_scheme=AckScheme.NAK_ONLY,
            description=(
                "Reliable paced transfer whose packets are ECN-capable: "
                "CE marks come back as backpressure (multiplicative "
                "decrease), recovery ticks raise the pace again (AIMD)."
            ),
        )
    )
    return registry


@dataclass(frozen=True)
class IncastConfig:
    """One incast cell: grid coordinates plus fixed workload shape."""

    transport: str = "mmt"  # "mmt" | "tcp" | "udp"
    senders: int = 8
    #: Offered load as a fraction of the receiver-downlink capacity.
    load: float = 1.5
    #: Fixed-K mark threshold as a fraction of the switch buffer.
    mark_threshold: float = 0.2
    #: Symmetric fabric, or a 4x-slower receiver downlink (deeper fan-in).
    symmetric: bool = True
    seed: int = 7
    #: ECN on: AQM marks ECT packets and transports react. ECN off: the
    #: same AQM drops instead (same RNG draws — the honest twin).
    ecn: bool = True
    message_bytes: int = 8000
    switch_buffer_bytes: int = 512_000
    edge_rate_bps: int = 10_000_000_000
    fabric_rate_bps: int = 40_000_000_000
    #: Aggregate offered bytes = load x bottleneck rate x this window.
    work_window_ns: int = 2 * MILLISECOND
    horizon_ns: int = 200 * MILLISECOND

    def __post_init__(self) -> None:
        if self.transport not in ("mmt", "tcp", "udp"):
            raise IncastError(f"unknown transport {self.transport!r}")
        if self.senders < 1:
            raise IncastError("need at least one sender")
        if self.load <= 0:
            raise IncastError("load must be positive")
        if not 0 < self.mark_threshold <= 1:
            raise IncastError("mark_threshold must be in (0, 1]")

    # -- derived workload shape (pure functions of the config) ---------------

    @property
    def bottleneck_rate_bps(self) -> int:
        return self.edge_rate_bps if self.symmetric else self.edge_rate_bps // 4

    @property
    def flow_bytes(self) -> int:
        """Per-sender transfer size (whole messages, at least one)."""
        total = self.load * self.bottleneck_rate_bps * self.work_window_ns / (8 * SECOND)
        per_flow = int(total) // self.senders
        messages = max(1, per_flow // self.message_bytes)
        return messages * self.message_bytes

    @property
    def flow_messages(self) -> int:
        return self.flow_bytes // self.message_bytes

    @property
    def pace_rate_mbps(self) -> int:
        """Per-sender initial pace (mmt/udp): aggregate = load x bottleneck."""
        aggregate_mbps = self.load * self.bottleneck_rate_bps / 1_000_000
        return max(1, int(aggregate_mbps / self.senders))


@dataclass
class IncastReport:
    """Outcome of one incast cell."""

    config: IncastConfig
    summary: FctSummary
    #: Fan-in AQM counters at the receiver's leaf port.
    ce_marked: int
    early_drops: int
    dropped: int
    peak_queue_bytes: int
    #: Transport-specific counters (retransmits, echoes, ...).
    extra: dict

    def as_metrics(self) -> dict:
        """Flat row for BENCH publication: grid coordinates + FCTs."""
        row = {
            "transport": self.config.transport,
            "senders": self.config.senders,
            "load": self.config.load,
            "mark_threshold": self.config.mark_threshold,
            "symmetric": int(self.config.symmetric),
            "ecn": int(self.config.ecn),
            "seed": self.config.seed,
            "flow_bytes": self.config.flow_bytes,
            "ce_marked": self.ce_marked,
            "early_drops": self.early_drops,
            "dropped": self.dropped,
            "peak_queue_bytes": self.peak_queue_bytes,
        }
        row.update(self.summary.as_metrics())
        row.update(self.extra)
        return row


def _build_fabric(sim: Simulator, config: IncastConfig) -> LeafSpine:
    # Senders are split across the two leaves (ceil half remote, so the
    # fabric actually carries fan-in traffic), receiver is h0_0.
    remote = (config.senders + 1) // 2
    local = config.senders - remote
    hosts_per_leaf = max(local + 1, remote)
    spec = LeafSpineSpec(
        leaves=2,
        spines=2,
        hosts_per_leaf=hosts_per_leaf,
        edge_rate_bps=config.edge_rate_bps,
        fabric_rate_bps=config.fabric_rate_bps,
        bottleneck_rate_bps=None if config.symmetric else config.bottleneck_rate_bps,
    )
    ports = iter(range(1_000_000))

    def switch_queue() -> RedQueue:
        index = next(ports)
        return RedQueue(
            config.switch_buffer_bytes,
            min_threshold=config.mark_threshold,
            max_threshold=config.mark_threshold,
            max_drop_probability=1.0,
            ewma_weight=1.0,
            rng=sim.rng(f"red:{index}"),
            ecn=config.ecn,
        )

    return build_leaf_spine(sim, spec, switch_queue_factory=switch_queue)


def _sender_hosts(fabric: LeafSpine, config: IncastConfig) -> list:
    remote = (config.senders + 1) // 2
    local = config.senders - remote
    hosts = [fabric.host(1, i) for i in range(remote)]
    hosts += [fabric.host(0, i + 1) for i in range(local)]
    return hosts


def _start_times(sim: Simulator, config: IncastConfig) -> list[int]:
    """Seeded per-flow start jitter (all flows begin within 50 us)."""
    rng = sim.rng("incast:jitter")
    return [rng.randrange(0, 50 * MICROSECOND) for _ in range(config.senders)]


def run_incast(
    config: IncastConfig,
    instrument: Callable[[LeafSpine], None] | None = None,
) -> IncastReport:
    """Run one incast cell to its horizon and extract FCTs.

    ``instrument`` (when given) runs after the fabric is built and
    before any traffic — golden-trace tests tap ports through it.
    """
    sim = Simulator(seed=config.seed)
    fabric = _build_fabric(sim, config)
    if instrument is not None:
        instrument(fabric)
    fct = FctCollector()
    starts = _start_times(sim, config)
    if config.transport == "tcp":
        collect = _drive_tcp(sim, fabric, config, fct, starts)
    elif config.transport == "udp":
        collect = _drive_udp(sim, fabric, config, fct, starts)
    else:
        collect = _drive_mmt(sim, fabric, config, fct, starts)
    sim.run(until_ns=config.horizon_ns)
    extra = collect()
    queue = fabric.receiver_port_queue()
    return IncastReport(
        config=config,
        summary=fct.summarize(),
        ce_marked=getattr(queue, "ce_marked", 0),
        early_drops=getattr(queue, "early_drops", 0),
        dropped=getattr(queue, "dropped", 0),
        peak_queue_bytes=getattr(queue, "peak_bytes", 0),
        extra=extra,
    )


# -- transport drivers --------------------------------------------------------


def _drive_tcp(sim, fabric, config, fct, starts) -> Callable[[], dict]:
    receiver = fabric.receiver
    tcp_config = TcpConfig(
        mss=config.message_bytes,
        ecn=config.ecn,
        # DTN-tuned timers: a 200 ms default min RTO would park every
        # incast loss for longer than the whole experiment.
        min_rto_ns=5 * MILLISECOND,
        initial_rto_ns=20 * MILLISECOND,
    )
    sink = TcpStack(receiver)
    sink.listen(5001, config=tcp_config)
    stacks = []
    connections = []

    def launch(index: int, stack: TcpStack) -> None:
        flow = f"flow{index:03d}"
        fct.start(flow, sim.now)
        connection = stack.connect(receiver.ip, 5001, config=tcp_config,
                                   local_port=33000 + index)
        connection.on_established = lambda c=connection: c.send(config.flow_bytes)
        connection.on_all_acked = lambda f=flow: fct.finish(f, sim.now)
        connections.append(connection)

    for index, host in enumerate(_sender_hosts(fabric, config)):
        stack = TcpStack(host)
        stacks.append(stack)
        sim.schedule(starts[index], launch, index, stack)

    def collect() -> dict:
        return {
            "retransmits": sum(c.stats.retransmits for c in connections),
            "timeouts": sum(c.stats.timeouts for c in connections),
            "ecn_reductions": sum(c.stats.ecn_reductions for c in connections),
            "ce_marks_received": sum(
                c.stats.ce_marks_received for c in sink._connections.values()
            ),
        }

    return collect


def _drive_udp(sim, fabric, config, fct, starts) -> Callable[[], dict]:
    receiver = fabric.receiver
    expected = config.flow_bytes
    got: dict[str, int] = {}
    flow_of: dict[str, str] = {}

    def on_datagram(packet, _socket) -> None:
        src, _port = remote_address(packet)
        got[src] = got.get(src, 0) + packet.payload_size
        if got[src] >= expected and src in flow_of:
            fct.finish(flow_of.pop(src), sim.now)

    sink = UdpStack(receiver)
    sink.bind(5002, on_datagram)
    senders = []
    gap_ns = max(1, (config.message_bytes * 8 * SECOND) // (config.pace_rate_mbps * 1_000_000))

    def pump(socket, left: int) -> None:
        socket.send_to(receiver.ip, 5002, config.message_bytes)
        if left > 1:
            sim.schedule(gap_ns, pump, socket, left - 1)

    for index, host in enumerate(_sender_hosts(fabric, config)):
        flow = f"flow{index:03d}"
        flow_of[host.ip] = flow
        socket = UdpStack(host).bind(5002)
        senders.append(socket)

        def launch(s=socket, f=flow) -> None:
            fct.start(f, sim.now)
            pump(s, config.flow_messages)

        sim.schedule(starts[index], launch)

    def collect() -> dict:
        return {
            "datagrams_sent": sum(s.tx_datagrams for s in senders),
            "bytes_received": sum(got.values()),
        }

    return collect


def _drive_mmt(sim, fabric, config, fct, starts) -> Callable[[], dict]:
    receiver = fabric.receiver
    registry = incast_registry()
    mode = "ecn-paced" if config.ecn else "backpressured"
    sink = MmtStack(receiver, registry=registry)
    receivers = []
    sender_stacks = []
    senders = []
    expected = config.flow_messages
    finished: set[str] = set()
    #: AIMD increase: every tick, pace recovers toward (never past) the
    #: configured rate; CE-driven backpressure pushes it down again.
    recover_tick_ns = 250 * MICROSECOND

    for index in range(config.senders):
        experiment = 100 + index
        wire_id = make_experiment_id(experiment)
        flow = f"flow{index:03d}"

        def on_message(packet, header, e=experiment, w=wire_id, f=flow) -> None:
            if f not in finished and sink.receivers[e].complete(w, expected):
                finished.add(f)
                fct.finish(f, sim.now)

        receivers.append(
            sink.bind_receiver(
                experiment,
                on_message=on_message,
                config=ReceiverConfig(
                    reorder_wait_ns=200 * MICROSECOND,
                    # Gentle multiplicative decrease: the hold-off below
                    # already bounds the reaction to once per window.
                    ecn_beta=0.8,
                ),
            )
        )

    for index, host in enumerate(_sender_hosts(fabric, config)):
        experiment = 100 + index
        flow = f"flow{index:03d}"
        stack = MmtStack(host, registry=registry)
        stack.attach_buffer(64 * 1024 * 1024)
        sender = stack.create_sender(
            experiment_id=make_experiment_id(experiment),
            mode=mode,
            dst_ip=receiver.ip,
            pace_rate_mbps=config.pace_rate_mbps,
            buffer_local=True,
            config=SenderConfig(
                min_pace_rate_mbps=1,
                backpressure_holdoff_ns=400 * MICROSECOND,
            ),
        )
        sender_stacks.append(stack)
        senders.append(sender)

        def launch(s=sender, f=flow) -> None:
            fct.start(f, sim.now)
            for _ in range(expected):
                s.send(config.message_bytes)
            s.finish()

        sim.schedule(starts[index], launch)

    ceiling = config.pace_rate_mbps

    def recover() -> None:
        for sender in senders:
            if sender.pace_rate_mbps is not None and sender.pace_rate_mbps < ceiling:
                sender.pace_rate_mbps = min(
                    ceiling,
                    max(sender.pace_rate_mbps + 1,
                        int(sender.pace_rate_mbps * PACE_RECOVERY_FACTOR)),
                )
        if len(finished) < config.senders:
            timer.start(recover_tick_ns)

    # The recovery tick stops once every flow completed; with a flow
    # still open it runs until just before the horizon.
    timer = Timer(sim, recover)
    timer.start(recover_tick_ns)
    sim.schedule(config.horizon_ns - 1, timer.stop)

    def collect() -> dict:
        return {
            "messages_sent": sum(s.stats.messages_sent for s in senders),
            "backpressure_signals": sum(
                s.stats.backpressure_signals for s in senders
            ),
            "ce_marks_seen": sum(r.stats.ce_marks_seen for r in receivers),
            "ce_echoes_sent": sum(r.stats.ce_echoes_sent for r in receivers),
            "retransmissions": sum(
                r.stats.retransmissions_received for r in receivers
            ),
            "unrecovered": sum(r.stats.unrecovered for r in receivers),
        }

    return collect


# -- grids -------------------------------------------------------------------


def grid_configs(
    transports: tuple[str, ...] = ("mmt", "tcp", "udp"),
    mark_thresholds: tuple[float, ...] = (0.1, 0.4),
    loads: tuple[float, ...] = (0.8, 1.5),
    senders: tuple[int, ...] = (4, 16),
    symmetric: tuple[bool, ...] = (True, False),
    seeds: tuple[int, ...] = (7, 42),
    **overrides,
) -> list[IncastConfig]:
    """The {K, L, N, sym/asym} x transport x seed grid, in stable order."""
    configs = []
    for seed in seeds:
        for transport in transports:
            for k in mark_thresholds:
                for load in loads:
                    for n in senders:
                        for sym in symmetric:
                            configs.append(
                                IncastConfig(
                                    transport=transport,
                                    senders=n,
                                    load=load,
                                    mark_threshold=k,
                                    symmetric=sym,
                                    seed=seed,
                                    **overrides,
                                )
                            )
    return configs


def small_grid(seeds: tuple[int, ...] = (7, 42), **overrides) -> list[IncastConfig]:
    """The CI smoke grid: one K, N in {4, 16}, symmetric, all transports."""
    return grid_configs(
        mark_thresholds=(0.2,),
        loads=(1.5,),
        senders=(4, 16),
        symmetric=(True,),
        seeds=seeds,
        **overrides,
    )


def case_label(config: IncastConfig) -> str:
    """Stable, sortable campaign label for one cell."""
    return (
        f"seed{config.seed:06d}_{config.transport}"
        f"_n{config.senders:03d}"
        f"_k{int(config.mark_threshold * 100):03d}"
        f"_l{int(config.load * 100):03d}"
        f"_{'sym' if config.symmetric else 'asym'}"
    )


def run_grid(
    configs: list[IncastConfig], jobs: int = 1, progress=None
) -> list[tuple[str, dict]]:
    """Run every grid cell, fanned across ``jobs`` cores.

    Each cell is a pure function of its :class:`IncastConfig`, so the
    labeled metrics are identical for every job count; the merge sorts
    by label, so the artifact is too. ``progress`` is forwarded to
    :func:`repro.analysis.shard.run_sharded` (campaign heartbeats); it
    observes results without touching them, so it cannot change the
    artifact.
    """
    from ..analysis.shard import incast_case_metrics, run_sharded

    return run_sharded(incast_case_metrics, configs, jobs=jobs, progress=progress)


def write_bench(
    labeled: list[tuple[str, dict]],
    configs: list[IncastConfig],
    directory: str | Path = ".",
) -> Path:
    """Write ``BENCH_fct_grid.json`` from finished grid cells.

    Deliberately *no* wall time: every value is simulation-derived, so
    the file is byte-identical per seed set, across reruns and across
    every ``--jobs N`` (the shard-determinism contract). The top-level
    ``seed`` is the first grid seed; every row carries its own.
    """
    from ..analysis.shard import merge_campaign

    seeds = sorted({c.seed for c in configs})
    base = configs[0]
    bench = merge_campaign(
        "fct_grid",
        labeled,
        params={
            "seeds": seeds,
            "transports": sorted({c.transport for c in configs}),
            "mark_thresholds": sorted({c.mark_threshold for c in configs}),
            "loads": sorted({c.load for c in configs}),
            "senders": sorted({c.senders for c in configs}),
            "message_bytes": base.message_bytes,
            "switch_buffer_bytes": base.switch_buffer_bytes,
            "edge_rate_bps": base.edge_rate_bps,
            "fabric_rate_bps": base.fabric_rate_bps,
            "work_window_ns": base.work_window_ns,
            "horizon_ns": base.horizon_ns,
        },
        seed=seeds[0],
    )
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    return bench.write(directory)


__all__ = [
    "ECN_PACED_CONFIG_ID",
    "IncastConfig",
    "IncastError",
    "IncastReport",
    "case_label",
    "grid_configs",
    "incast_registry",
    "run_grid",
    "run_incast",
    "small_grid",
    "write_bench",
]
