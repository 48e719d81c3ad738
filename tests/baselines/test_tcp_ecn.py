"""TCP ECN (RFC 3168): golden non-regression pins and the ECE/CWR echo.

Two contracts guard the ECN work:

1. **ECN off is byte-identical to before.** Adding the ECE/CWR machinery
   must not move a single bit of the pre-ECN wire trace: the two-seed
   digests below were captured before ``TcpConfig.ecn`` existed and are
   pinned in the golden-replay style of
   ``tests/dataplane/test_golden_replay.py``. If a change intentionally
   alters them, update the digest in the same commit and say why.

2. **ECN on diverges only after the first CE mark.** Up to the first
   mark the ECT stamp is inert: the ECN-enabled twin of a run replays
   the same behavioral trace (timing, seq/ack, flags, sizes — the ECN
   codepoint itself masked) through the same-seed RED queue, and the
   first divergence coincides with the first CE-marked delivery.
"""

import functools
import hashlib

import pytest

from repro.baselines.tcp import TcpConfig, TcpStack
from repro.netsim import RedQueue, Simulator, Topology
from repro.netsim.units import MBPS, gbps, microseconds

#: sha256 over the newline-joined lossy-reno trace (see ``wire_trace``),
#: captured before the ECN machinery existed.
GOLDEN_DIGESTS = {
    7: ("73dc72cf73f296a3ed3314c365572813ce6b7df371a48cde32f80720c5f51b7b", 152),
    42: ("02f23470acb6c410c1dbd268e146e975c30651e90cd2678fa5b2c0ab0416b069", 147),
}


def trace_line(sim, label, packet) -> str:
    ip = packet.ip
    tcp = packet.l4
    flags = "".join(
        name
        for name, on in (
            ("S", tcp.flag_syn),
            ("A", tcp.flag_ack),
            ("F", tcp.flag_fin),
            ("R", tcp.flag_rst),
            ("E", tcp.flag_ece),
            ("W", tcp.flag_cwr),
        )
        if on
    )
    sack = ",".join(f"{s}-{e}" for s, e in tcp.sack_blocks)
    return (
        f"{sim.now}|{label}|ecn{ip.ecn}|{tcp.src_port}>{tcp.dst_port}"
        f"|seq{tcp.seq}|ack{tcp.ack}|{flags}|w{tcp.window}|sack[{sack}]"
        f"|{packet.payload_size}"
    )


def tap_links(topo, lines) -> None:
    for link in topo.links:
        end_a, end_b = link.ends
        for port, peer in ((end_a, end_b), (end_b, end_a)):

            def tapped(
                packet,
                _orig=port.deliver,
                _port=port,
                _label=f"{link.name}:{peer.node.name}->{port.node.name}",
            ):
                if packet.l4 is not None:
                    lines.append(trace_line(_port.node.sim, _label, packet))
                _orig(packet)

            port.deliver = tapped


def wire_trace(seed, size_bytes=400_000, loss_rate=0.02):
    """The pinned pre-ECN scenario: lossy 1G bottleneck, reno sender."""
    sim = Simulator(seed=seed)
    topo = Topology(sim)
    a = topo.add_host("a", ip="10.0.1.2")
    b = topo.add_host("b", ip="10.0.2.2")
    r = topo.add_router("r")
    topo.connect(a, r, gbps(10), microseconds(5), 9000)
    topo.connect(r, b, gbps(1), microseconds(100), 9000, loss_rate=loss_rate)
    topo.install_routes()

    lines: list[str] = []
    tap_links(topo, lines)
    config = TcpConfig(congestion_control="reno", ack_every=2)
    stack_a = TcpStack(a)
    TcpStack(b).listen(5001, config=config)
    conn = stack_a.connect("10.0.2.2", 5001, config=config, local_port=33000)
    done = {}
    conn.on_all_acked = lambda: done.setdefault("fct", sim.now)
    conn.on_established = lambda: conn.send(size_bytes)
    sim.run(until_ns=5_000_000_000)
    assert "fct" in done, "golden transfer must complete"
    return lines


@pytest.mark.parametrize("seed", sorted(GOLDEN_DIGESTS))
def test_ecn_off_trace_matches_pre_ecn_golden_digest(seed):
    lines = wire_trace(seed)
    expected_digest, expected_records = GOLDEN_DIGESTS[seed]
    assert len(lines) == expected_records
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == expected_digest
    # An ECN-disabled connection never stamps ECT and never sets ECE/CWR.
    for line in lines:
        assert "|ecn0|" in line
        flags = line.split("|")[6]
        assert "E" not in flags and "W" not in flags


# -- the ECN-enabled twin ------------------------------------------------------


def ecn_twin_trace(seed, ecn, size_bytes=300_000):
    """One run of the Fixed-K RED bottleneck scenario; only ``ecn``
    (the TCP config flag) differs between twins."""
    sim = Simulator(seed=seed)
    topo = Topology(sim)
    a = topo.add_host("a", ip="10.0.1.2")
    b = topo.add_host("b", ip="10.0.2.2")
    r = topo.add_router("r")
    red = RedQueue(
        100_000,
        min_threshold=0.1,
        max_threshold=0.1,
        max_drop_probability=1.0,
        ewma_weight=1.0,
        stream=functools.partial(sim.rng, "red"),
        ecn=True,
    )
    topo.connect(a, r, gbps(10), microseconds(5), 9000)
    topo.connect(r, b, 200 * MBPS, microseconds(50), 9000, queue_factory_a=lambda: red)
    topo.install_routes()

    lines: list[str] = []
    tap_links(topo, lines)
    config = TcpConfig(congestion_control="reno", ecn=ecn)
    stack_a = TcpStack(a)
    stack_b = TcpStack(b)
    stack_b.listen(5001, config=config)
    conn = stack_a.connect("10.0.2.2", 5001, config=config, local_port=33000)
    done = {}
    conn.on_all_acked = lambda: done.setdefault("fct", sim.now)
    conn.on_established = lambda: conn.send(size_bytes)
    sim.run(until_ns=5_000_000_000)
    assert "fct" in done, "twin transfer must complete"
    sink = next(iter(stack_b._connections.values()))
    return lines, conn, sink, red


def masked(line: str) -> str:
    """Hide the inert ECT stamp so twins compare behaviorally."""
    return line.replace("|ecn2|", "|ecn0|").replace("|ecn1|", "|ecn0|")


def test_ecn_twin_diverges_only_after_first_ce_mark():
    on_lines, on_conn, _sink, on_red = ecn_twin_trace(7, ecn=True)
    off_lines, off_conn, _sink, off_red = ecn_twin_trace(7, ecn=False)

    # The ECN run marked where the non-ECN twin dropped. (The ECN run
    # may still shed the odd packet: non-ECT control segments above K,
    # or a tail drop during the slow-start overshoot.)
    assert on_red.ce_marked > 0 and off_red.ce_marked == 0
    assert off_red.early_drops > on_red.dropped

    mark_index = next(i for i, line in enumerate(on_lines) if "|ecn3|" in line)
    # Up to the first CE-marked delivery the twins are behaviorally
    # identical: the ECT codepoint is the only masked difference.
    assert [masked(l) for l in on_lines[:mark_index]] == [
        masked(l) for l in off_lines[:mark_index]
    ]
    # ... and they genuinely diverge afterwards (mark vs drop).
    assert [masked(l) for l in on_lines[mark_index:]] != [
        masked(l) for l in off_lines[mark_index:]
    ]
    assert on_conn.stats.ecn_reductions > 0
    assert off_conn.stats.ecn_reductions == 0


def test_ecn_echo_and_reaction_semantics():
    lines, conn, sink, red = ecn_twin_trace(42, ecn=True)

    # Receiver saw CE (up to the odd marked packet lost to a tail drop)
    # and echoed ECE; sender reacted and sent CWR.
    assert 0 < sink.stats.ce_marks_received <= red.ce_marked
    assert conn.stats.ece_acks_received > 0
    assert conn.stats.ecn_reductions > 0
    # Once per window (RFC 3168 §6.1.2): far fewer reductions than
    # ECE-bearing ACKs — the echo persists until CWR comes back.
    assert conn.stats.ecn_reductions < conn.stats.ece_acks_received
    # Count each segment once, on the hop next to the sender: ECE ACKs
    # as delivered to it, CWR segments as it emits them.
    ece_lines = [l for l in lines if ":r->a" in l and "E" in l.split("|")[6]]
    cwr_lines = [l for l in lines if ":a->r" in l and "W" in l.split("|")[6]]
    assert len(ece_lines) == conn.stats.ece_acks_received
    # At most one CWR per reduction; a reduction with no data left to
    # send leaves its CWR pending forever, so fewer can reach the wire.
    assert 0 < len(cwr_lines) <= conn.stats.ecn_reductions
    # ECE rides pure ACKs from the receiver; CWR rides data segments.
    for line in cwr_lines:
        assert int(line.split("|")[9]) > 0

    # Marking replaced dropping: the ECN run loses far less at the
    # bottleneck (and therefore retransmits far less) than its twin.
    _lines, off_conn, _sink, off_red = ecn_twin_trace(42, ecn=False)
    assert red.dropped < off_red.dropped
    assert conn.stats.retransmits < off_conn.stats.retransmits


def test_ecn_stamps_only_data_segments():
    lines, _conn, _sink, _red = ecn_twin_trace(7, ecn=True)
    for line in lines:
        parts = line.split("|")
        ecn_field, flags, payload = parts[2], parts[6], int(parts[9])
        if payload == 0:
            # SYN, pure ACKs, FIN: never ECT-stamped.
            assert ecn_field == "ecn0", line
        else:
            assert ecn_field in ("ecn2", "ecn3"), line
