"""Golden-replay pins: the pilot's wire trace is part of the contract.

Taps every link of the pilot topology and digests every MMT packet
crossing it — time, link, direction, exact header bytes, payload size.
The digests below are committed; any change to header layout, codec
byte order, event scheduling, or relay behavior shows up here as a
digest mismatch *before* it silently invalidates recorded experiments.

Pins:

- ``flows=1`` — the historical single-flow pilot. This digest predates
  the multi-flow work and MUST survive it unchanged: untagged traffic
  never carries the FLOW_ID extension, so multi-flow support is
  invisible to every existing trace.
- ``flows=2`` — the tagged two-flow pilot, pinning the multi-flow wire
  behavior (FLOW_ID bytes, per-flow sequencing, DRR relay order).
- ``buffers="directory"`` and ``buffers="failover"`` under 1 % WAN
  loss — the live buffer map's stamps, NAKs and retransmissions.
- the Fig. 3 :class:`~repro.wan.MultimodalScenario` under 2 % WAN
  loss, with and without in-network duplication to the researcher.
- the supernova scenario's ``"mmt"`` flavour (duplication to the
  telescope-side broker).

If a change *intentionally* alters the wire trace, update the digest
here in the same commit and say why in the commit message.
"""

import hashlib

import pytest

from repro.core.header import MmtHeader
from repro.dataplane import PilotConfig, PilotTestbed
from repro.integration import SupernovaConfig, SupernovaScenario
from repro.netsim import Simulator
from repro.netsim.units import MILLISECOND
from repro.wan import MultimodalScenario, ScenarioConfig

GOLDEN_SEED = 7
GOLDEN_MESSAGES = 48
GOLDEN_PAYLOAD = 4000
GOLDEN_INTERVAL_NS = 2000

#: sha256 over the newline-joined trace lines (see :func:`wire_trace`).
GOLDEN_DIGEST_1FLOW = "38fdc88cc93ea9476f6f25462001b0ea8e1bcba5387a8fbd2a57c7abd0118ebd"
GOLDEN_RECORDS_1FLOW = 288
GOLDEN_DIGEST_2FLOW = "97c9db9c85829ca69c17fa636c67e40139d0f10892e0d4326102ce3b4bd96f16"
GOLDEN_RECORDS_2FLOW = 288


def wire_trace(testbed, drive) -> list[str]:
    """Tap every link of a built ``testbed``, run ``drive()``, and
    return one line per MMT packet delivery:
    ``time|link:src->dst|header-bytes-hex|payload-size``."""
    lines: list[str] = []
    for link in testbed.topology.links:
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
                        f"{mmt.encode().hex()}|{packet.payload_size}"
                    )
                _orig(packet)

            port.deliver = tapped
    drive()
    return lines


def pilot_trace(config: PilotConfig, messages: int = GOLDEN_MESSAGES):
    """The golden pilot stream, split over ``config.flows``: the wire
    trace and the run's report."""
    pilot = PilotTestbed(sim=Simulator(seed=GOLDEN_SEED), config=config)
    reports = []

    def drive():
        for fid in range(config.flows):
            pilot.send_stream(
                messages // config.flows,
                payload_size=GOLDEN_PAYLOAD,
                interval_ns=GOLDEN_INTERVAL_NS,
                flow=fid,
            )
        reports.append(pilot.run())

    lines = wire_trace(pilot, drive)
    assert reports[0].complete, "golden scenario must deliver everything"
    return lines, reports[0]


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_single_flow_trace_matches_golden_digest():
    lines, _report = pilot_trace(PilotConfig())
    assert len(lines) == GOLDEN_RECORDS_1FLOW
    assert digest(lines) == GOLDEN_DIGEST_1FLOW
    # The single-flow pilot never tags packets: no FLOW_ID extension
    # may appear anywhere in its trace.
    for line in lines:
        header = MmtHeader.decode(bytes.fromhex(line.split("|")[2]))
        assert header.flow_id is None


def test_two_flow_trace_matches_golden_digest():
    lines, _report = pilot_trace(PilotConfig(flows=2))
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
    first, _report = pilot_trace(PilotConfig(flows=2))
    second, _report = pilot_trace(PilotConfig(flows=2))
    assert first == second


# -- the other wirings ---------------------------------------------------------

#: Messages of the lossy directory/failover runs: enough that the 1 %
#: WAN loss costs packets, so NAKs and retransmissions cross the wire.
LOSSY_MESSAGES = 400

#: ``name → (digest, records)`` of the pins below.
GOLDEN_WIRINGS = {
    "pilot-directory": (
        "af4ee46368340536af4439729db50e5250947e250464a082841461c5bc82b674", 2433),
    "pilot-failover": (
        "d0c367e3d7ad9998b5a1f137a55f28db5ac9a32413237fedff1b6da09e8a2c38", 2433),
    "multimodal-relay": (
        "71d64aa58e9d527ea276656fdd95c866c669ca307937055e74e87e8b1a1c016f", 2030),
    "multimodal-duplicate": (
        "34b33298e8579dcd43221b8f3b94a1b36ca0c3834c1d1d6dd34f54451f543312", 2024),
    "supernova-mmt": (
        "abebde0bc65769efca217df044bb744c863d9f451abfe95ced4aba7b48a7e9cd", 844),
}


@pytest.mark.parametrize("buffers", ["directory", "failover"])
def test_live_buffer_map_trace_matches_golden_digest(buffers):
    lines, report = pilot_trace(
        PilotConfig(buffers=buffers, wan_loss_rate=0.01), messages=LOSSY_MESSAGES
    )
    assert report.naks_sent > 0 and report.retransmissions > 0
    assert (digest(lines), len(lines)) == GOLDEN_WIRINGS[f"pilot-{buffers}"]


@pytest.mark.parametrize("duplicate", [False, True], ids=["relay", "duplicate"])
def test_multimodal_trace_matches_golden_digest(duplicate):
    config = ScenarioConfig(
        message_count=200, message_interval_ns=4_000, wan_delay_ns=2 * MILLISECOND,
        campus_delay_ns=1 * MILLISECOND, wan_loss_rate=0.02,
        duplicate_to_researcher=duplicate,
    )
    scenario = MultimodalScenario(Simulator(seed=GOLDEN_SEED), config)
    results = []
    lines = wire_trace(scenario, lambda: results.append(scenario.run(settle_ns=0)))
    result = results[0]
    assert result.storage_delivered == result.researcher_delivered == 200
    assert result.extras["naks"] > 0
    name = "multimodal-duplicate" if duplicate else "multimodal-relay"
    assert (digest(lines), len(lines)) == GOLDEN_WIRINGS[name]


def test_supernova_mmt_trace_matches_golden_digest():
    config = SupernovaConfig(
        background_rate_hz=50.0, burst_rate_hz=2_000.0, burst_start_ns=200 * MILLISECOND,
        burst_duration_ns=100 * MILLISECOND, trigger_threshold=30,
    )
    scenario = SupernovaScenario("mmt", config, seed=GOLDEN_SEED)
    results = []
    lines = wire_trace(scenario, lambda: results.append(scenario.run()))
    assert results[0].alert_at_scope_ns is not None
    assert (digest(lines), len(lines)) == GOLDEN_WIRINGS["supernova-mmt"]
