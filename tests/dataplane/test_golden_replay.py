"""Golden-replay pins: the pilot's wire trace is part of the contract.

Taps every link of the pilot topology and digests every MMT packet
crossing it — time, link, direction, exact header bytes, payload size.
The digests below are committed; any change to header layout, codec
byte order, event scheduling, or relay behavior shows up here as a
digest mismatch *before* it silently invalidates recorded experiments.

Two pins:

- ``flows=1`` — the historical single-flow pilot. This digest predates
  the multi-flow work and MUST survive it unchanged: untagged traffic
  never carries the FLOW_ID extension, so multi-flow support is
  invisible to every existing trace.
- ``flows=2`` — the tagged two-flow pilot, pinning the multi-flow wire
  behavior (FLOW_ID bytes, per-flow sequencing, DRR relay order).

If a change *intentionally* alters the wire trace, update the digest
here in the same commit and say why in the commit message.
"""

import hashlib

from repro.core.header import MmtHeader
from repro.dataplane import PilotConfig, PilotTestbed
from repro.netsim import Simulator

GOLDEN_SEED = 7
GOLDEN_MESSAGES = 48
GOLDEN_PAYLOAD = 4000
GOLDEN_INTERVAL_NS = 2000

#: sha256 over the newline-joined trace lines (see :func:`wire_trace`).
GOLDEN_DIGEST_1FLOW = "38fdc88cc93ea9476f6f25462001b0ea8e1bcba5387a8fbd2a57c7abd0118ebd"
GOLDEN_RECORDS_1FLOW = 288
GOLDEN_DIGEST_2FLOW = "97c9db9c85829ca69c17fa636c67e40139d0f10892e0d4326102ce3b4bd96f16"
GOLDEN_RECORDS_2FLOW = 288


def wire_trace(flows: int) -> list[str]:
    """Run the golden pilot scenario; return one line per MMT packet
    delivery: ``time|link:src->dst|header-bytes-hex|payload-size``."""
    pilot = PilotTestbed(
        sim=Simulator(seed=GOLDEN_SEED), config=PilotConfig(flows=flows)
    )
    lines: list[str] = []
    for link in pilot.topology.links:
        end_a, end_b = link.ends
        for port, peer in ((end_a, end_b), (end_b, end_a)):

            def tapped(
                packet,
                _orig=port.deliver,
                _port=port,
                _label=f"{link.name}:{peer.node.name}->{port.node.name}",
            ):
                mmt = packet.mmt
                if mmt is not None:
                    lines.append(
                        f"{_port.node.sim.now}|{_label}|"
                        f"{mmt.encode(validate=False).hex()}|{packet.payload_size}"
                    )
                _orig(packet)

            port.deliver = tapped
    if flows > 1:
        for fid in range(flows):
            pilot.send_stream(
                GOLDEN_MESSAGES // flows,
                payload_size=GOLDEN_PAYLOAD,
                interval_ns=GOLDEN_INTERVAL_NS,
                flow=fid,
            )
    else:
        pilot.send_stream(
            GOLDEN_MESSAGES,
            payload_size=GOLDEN_PAYLOAD,
            interval_ns=GOLDEN_INTERVAL_NS,
        )
    report = pilot.run()
    assert report.complete, "golden scenario must deliver everything"
    return lines


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_single_flow_trace_matches_golden_digest():
    lines = wire_trace(flows=1)
    assert len(lines) == GOLDEN_RECORDS_1FLOW
    assert digest(lines) == GOLDEN_DIGEST_1FLOW
    # The single-flow pilot never tags packets: no FLOW_ID extension
    # may appear anywhere in its trace.
    for line in lines:
        header = MmtHeader.decode(bytes.fromhex(line.split("|")[2]))
        assert header.flow_id is None


def test_two_flow_trace_matches_golden_digest():
    lines = wire_trace(flows=2)
    assert len(lines) == GOLDEN_RECORDS_2FLOW
    assert digest(lines) == GOLDEN_DIGEST_2FLOW
    # Every data packet is tagged and both flows appear on the wire.
    flow_ids = {
        header.flow_id
        for line in lines
        if (header := MmtHeader.decode(bytes.fromhex(line.split("|")[2]))).flow_id
        is not None
    }
    assert flow_ids == {0, 1}


def test_two_flow_replay_is_byte_identical():
    """Same seed, same config → the full trace (not just its digest)
    replays byte-for-byte, line by line."""
    first = wire_trace(flows=2)
    second = wire_trace(flows=2)
    assert first == second
