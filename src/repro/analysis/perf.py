"""Deterministic microbenchmark workloads for the two hot layers.

The perf-sensitive layers of the stack are the event engine
(:mod:`repro.netsim.engine`) and the packet path (header stack +
MMT codec). The workloads here drive both with a fixed, seedless
operation pattern and return **operation counts** — never wall time.
Callers (``benchmarks/bench_engine_throughput.py``,
``benchmarks/bench_packet_path.py``, and ``repro bench``) time the
call and derive ``events_per_second`` / ``packets_per_second``.

Keeping the workloads here, importable from both the benchmark suite
and the CLI, guarantees the committed ``BENCH_*.json`` trajectory and
``repro bench`` measure the same thing. The counts are exact functions
of the arguments, so CI can assert them as *operation budgets*: a
change that silently adds work per event or per packet fails the perf
smoke job even on noisy shared runners, where wall-clock thresholds
would flap.
"""

from __future__ import annotations

from ..core.features import Feature
from ..core.header import MmtHeader
from ..netsim.engine import Simulator
from ..netsim.headers import EthernetHeader, Ipv4Header, UdpHeader
from ..netsim.packet import Packet

__all__ = ["engine_event_churn", "packet_path_churn"]

#: 64-bit LCG (Knuth) for delay jitter — deterministic, no ``random``.
_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


def engine_event_churn(
    events: int = 200_000,
    cancel_every: int = 4,
    batch: int = 512,
    horizon_ns: int = 4096,
) -> dict[str, int]:
    """Drive the event engine with a schedule/cancel/dispatch mix.

    Events are scheduled in batches of ``batch`` with LCG-jittered
    delays (so the heap actually sifts), every ``cancel_every``-th one
    is cancelled before it can fire, and after each batch the queue is
    drained. A final mass-restart wave arms ``batch`` timers and
    cancels 90% of them — the retransmission-window pattern that the
    engine's lazy compaction exists for.

    Returns exact operation counts; every value is a pure function of
    the arguments (asserted by the perf smoke job as a budget).
    """
    sim = Simulator(seed=7)
    fired = 0

    def fire() -> None:
        nonlocal fired
        fired += 1

    scheduled = 0
    cancelled = 0
    peak_pending = 0
    state = 0x9E3779B97F4A7C15
    remaining = events
    while remaining > 0:
        n = batch if batch < remaining else remaining
        remaining -= n
        for _ in range(n):
            state = (state * _LCG_MULT + _LCG_INC) & _LCG_MASK
            event = sim.schedule(state % horizon_ns, fire)
            scheduled += 1
            if scheduled % cancel_every == 0:
                event.cancel()
                cancelled += 1
        pending = sim.pending_events()
        if pending > peak_pending:
            peak_pending = pending
        sim.run()

    # Mass timer restart: arm a wave, cancel 9 in 10 before draining.
    wave = [sim.schedule(1 + (i % 97), fire) for i in range(batch)]
    scheduled += batch
    for i, event in enumerate(wave):
        if i % 10:
            event.cancel()
            cancelled += 1
    sim.run()

    return {
        "scheduled": scheduled,
        "cancelled": cancelled,
        "fired": fired,
        "events_processed": sim.events_processed,
        "peak_pending": peak_pending,
        "final_now_ns": sim.now,
    }


def packet_path_churn(
    packets: int = 20_000,
    hops: int = 4,
    tracer=None,
    sampler=None,
    seed: int = 7,
) -> dict[str, int]:
    """Drive the packet path with a pilot-shaped per-packet lifecycle.

    Each iteration builds a mode-1-style MMT packet, encapsulates it in
    UDP/IPv4/Ethernet (O(1) pushes), then per hop rewrites hot header
    fields (seq/age — value rewrites that must *not* invalidate the
    memoized size), re-reads ``size_bytes``, and finally encodes the
    MMT header (validate-once path), decodes it back, and decapsulates.

    ``tracer`` exercises the causal-tracing hook pattern on the hot
    path: the per-hop hook is the exact ``is not None`` guard every
    instrumented component uses, so the default ``tracer=None`` run *is*
    the tracing-disabled product path — its operation budget must stay
    identical to the pre-tracing baseline (``trace_emits == 0``).

    ``sampler`` exercises the observability hook the same way: the
    per-hop ``is not None`` guard is the only cost a sampler-less run
    pays, so ``sampler=None`` keeps the budget with ``sample_emits ==
    0``.

    ``seed`` jitters header *values* only (the starting sequence number
    and the per-hop age rewrites go through the LCG), so different
    shards of a campaign exercise different field contents while every
    operation count — including ``size_bytes_total`` and
    ``encoded_bytes``, which depend on the fixed feature set, not the
    values — stays an exact function of ``(packets, hops)``.

    Returns exact operation counts (a pure function of the arguments).
    """
    features = Feature.SEQUENCED | Feature.RETRANSMISSION | Feature.AGE_TRACKING
    state = (seed * _LCG_MULT + _LCG_INC) & _LCG_MASK
    seq_base = state & 0xFFFFFFFF
    built = 0
    pushes = 0
    pops = 0
    size_checks = 0
    size_bytes_total = 0
    encoded_bytes = 0
    decodes = 0
    trace_emits = 0
    sample_emits = 0
    for i in range(packets):
        mmt = MmtHeader(
            config_id=1,
            features=features,
            experiment_id=(7 << 8) | 1,
            seq=(seq_base + i) & 0xFFFFFFFF,
            buffer_addr="10.0.0.1",
            age_ns=0,
            age_budget_ns=5_000_000,
        )
        packet = Packet(headers=[mmt], payload_size=8000)
        built += 1
        packet.push(UdpHeader(src_port=4791, dst_port=4791))
        packet.push(Ipv4Header(src="10.0.0.1", dst="10.0.0.2"))
        packet.push(EthernetHeader())
        pushes += 3
        for hop in range(hops):
            size_bytes_total += packet.size_bytes  # memoized after hop 0
            # Value rewrite (seeded jitter): size memo must hold.
            mmt.age_ns = hop * 1000 + (seq_base & 0xFFF)
            size_bytes_total += packet.size_bytes
            size_checks += 2
            if tracer is not None:
                tracer.emit(
                    "element.egress", f"hop{hop}",
                    mmt.experiment_id, 0, mmt.seq, config=mmt.config_id,
                )
                trace_emits += 1
            if sampler is not None:
                sampler.record("packet_path_age_ns", mmt.age_ns, hop=str(hop))
                sample_emits += 1
        wire = mmt.encode()  # validates once, then packs in one call
        encoded_bytes += len(wire)
        decoded = MmtHeader.decode(wire)
        decodes += 1
        if decoded.seq != mmt.seq:  # pragma: no cover - codec invariant
            raise AssertionError("round-trip mismatch in perf workload")
        packet.pop()
        packet.pop()
        packet.pop()
        pops += 3
    return {
        "packets": built,
        "pushes": pushes,
        "pops": pops,
        "size_checks": size_checks,
        "size_bytes_total": size_bytes_total,
        "encoded_bytes": encoded_bytes,
        "decodes": decodes,
        "trace_emits": trace_emits,
        "sample_emits": sample_emits,
    }

