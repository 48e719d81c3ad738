"""P2 — packet-path throughput microbenchmark.

Times :func:`repro.analysis.perf.packet_path_churn` (the same workload
``repro bench`` runs) and records ``packets_per_second`` into
``BENCH_packet_path.json``.

Like the engine bench, the assertions are deterministic *operation
budgets* — exact counts, not wall-clock thresholds — so CI's perf-smoke
job stays meaningful on noisy shared runners. ``size_bytes_total`` in
particular pins the byte-accurate wire sizing through the memoized
``Packet.size_bytes`` path: a caching bug that returned stale sizes
would change the sum.
"""

from __future__ import annotations

from repro.analysis.perf import packet_path_churn

PACKETS = 20_000
HOPS = 4
SEED = 7

#: Wire bytes of one workload packet: Ethernet(18) + IPv4(20) + UDP(8)
#: + MMT core+SEQ+RETX+AGE (8+4+4+17) + 8000B payload.
PACKET_BYTES = 18 + 20 + 8 + 33 + 8000


def test_packet_path_throughput(once, bench_result):
    counts = once(packet_path_churn, packets=PACKETS, hops=HOPS, seed=SEED)

    # Operation budget (pure function of PACKETS/HOPS; see docstring).
    assert counts["packets"] == PACKETS
    assert counts["pushes"] == counts["pops"] == 3 * PACKETS
    assert counts["size_checks"] == 2 * HOPS * PACKETS
    assert counts["size_bytes_total"] == 2 * HOPS * PACKETS * PACKET_BYTES
    assert counts["encoded_bytes"] == 33 * PACKETS
    assert counts["decodes"] == PACKETS
    # Tracing-disabled guard: the default run *is* the product path with
    # the tracer hooks compiled in but off — it must emit nothing and
    # keep the exact pre-tracing budget above.
    assert counts["trace_emits"] == 0
    # Same contract for the sampler hooks: off by default, zero emits.
    assert counts["sample_emits"] == 0

    wall = bench_result.metrics["test_packet_path_throughput"]["wall_time_s"]
    bench_result.params = {"packets": PACKETS, "hops": HOPS}
    bench_result.seed = SEED
    bench_result.record(
        "test_packet_path_throughput",
        packets_per_second=round(counts["packets"] / wall),
        **counts,
    )


def test_packet_path_tracing_enabled(once, bench_result):
    """Tracing-enabled twin: same workload with a live flight recorder.

    The non-trace operation budget must not move by a single operation
    (tracing observes, never steers), and the emit count is exact:
    one per hop per packet. The bounded ring keeps memory flat."""
    from repro.netsim.engine import Simulator
    from repro.trace import Tracer

    tracer = Tracer(Simulator(seed=7), capacity=1024)
    counts = once(packet_path_churn, packets=PACKETS, hops=HOPS, tracer=tracer, seed=SEED)

    assert counts["packets"] == PACKETS
    assert counts["pushes"] == counts["pops"] == 3 * PACKETS
    assert counts["size_checks"] == 2 * HOPS * PACKETS
    assert counts["size_bytes_total"] == 2 * HOPS * PACKETS * PACKET_BYTES
    assert counts["encoded_bytes"] == 33 * PACKETS
    assert counts["decodes"] == PACKETS
    assert counts["trace_emits"] == HOPS * PACKETS
    assert counts["sample_emits"] == 0
    assert tracer.events_emitted == HOPS * PACKETS
    assert tracer.events_retained <= 1024

    wall = bench_result.metrics["test_packet_path_tracing_enabled"]["wall_time_s"]
    bench_result.record(
        "test_packet_path_tracing_enabled",
        packets_per_second=round(counts["packets"] / wall),
        trace_emits=counts["trace_emits"],
        events_retained=tracer.events_retained,
    )


def test_packet_path_sampling_enabled(once, bench_result):
    """Sampler-enabled twin: same workload with live counter sampling.

    Like tracing, sampling observes and never steers: the non-sample
    operation budget is identical to the default run, and the emit
    count is exact — one recorded point per hop per packet, landing in
    ``HOPS`` bounded ring series."""
    from repro.netsim.engine import Simulator
    from repro.obs import Sampler

    sampler = Sampler(Simulator(seed=7), every_ns=1_000, capacity=1024)
    counts = once(packet_path_churn, packets=PACKETS, hops=HOPS, sampler=sampler, seed=SEED)

    assert counts["packets"] == PACKETS
    assert counts["pushes"] == counts["pops"] == 3 * PACKETS
    assert counts["size_checks"] == 2 * HOPS * PACKETS
    assert counts["size_bytes_total"] == 2 * HOPS * PACKETS * PACKET_BYTES
    assert counts["encoded_bytes"] == 33 * PACKETS
    assert counts["decodes"] == PACKETS
    assert counts["sample_emits"] == HOPS * PACKETS
    assert sampler.sample_emits == HOPS * PACKETS
    assert len(sampler.all_series()) == HOPS
    assert all(len(s.points) <= 1024 for s in sampler.all_series())

    wall = bench_result.metrics["test_packet_path_sampling_enabled"]["wall_time_s"]
    bench_result.record(
        "test_packet_path_sampling_enabled",
        packets_per_second=round(counts["packets"] / wall),
        sample_emits=counts["sample_emits"],
        series=len(sampler.all_series()),
    )

