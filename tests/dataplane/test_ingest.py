"""IngestTestbed: the one ingest pipe behind both egresses.

Everything here runs against :class:`PilotTestbed` *and*
:class:`ReceiverFarm` — the behaviours are the base's, so neither
egress gets its own copy of the test.
"""

import math

import pytest

from repro.dataplane import PilotConfig, PilotTestbed
from repro.dataplane.pilot import MTU_BYTES
from repro.fleet import FarmConfig, ReceiverFarm
from repro.netsim import Simulator
from repro.trace import Tracer, trace_digest

INGEST_NODES = ("sensor", "daq-switch", "dtn1", "alveo-u280", "tofino2")


def build(kind: str, seed: int = 7, **kwargs):
    if kind == "pilot":
        return PilotTestbed(Simulator(seed=seed), PilotConfig(**kwargs))
    return ReceiverFarm(Simulator(seed=seed), FarmConfig(nodes=2, **kwargs))


both = pytest.mark.parametrize("kind", ["pilot", "farm"])


def test_ingest_parity_between_pilot_and_farm():
    pilot = PilotTestbed()
    farm = ReceiverFarm(config=FarmConfig(nodes=1, flows=1))

    def ingest(testbed):
        nodes = testbed.topology.nodes
        assert tuple(nodes)[: len(INGEST_NODES)] == INGEST_NODES
        return {
            "nodes": [
                (name, str(getattr(nodes[name], "mac", None)), getattr(nodes[name], "ip", None))
                for name in INGEST_NODES
            ],
            "links": [
                (link.name, link.rate_bps, link.propagation_delay_ns, link.mtu_bytes)
                for link in testbed.topology.links[:4]
            ],
            "u280": [table.name for table in testbed.u280.pipeline.tables],
            "tofino": [table.name for table in testbed.tofino.pipeline.tables],
        }

    pilot_side, farm_side = ingest(pilot), ingest(farm)
    # The farm's Tofino2 additionally runs the balancer, after the shared two.
    shared = len(pilot_side["tofino"])
    assert farm_side["tofino"][:shared] == pilot_side["tofino"]
    assert len(farm_side["tofino"]) == shared + 1
    farm_side["tofino"] = farm_side["tofino"][:shared]
    assert pilot_side == farm_side
    assert pilot.elements[:2] == (pilot.u280, pilot.tofino)
    assert pilot.stacks[:2] == (pilot.sensor_stack, pilot.dtn1_stack)
    assert len(pilot.stacks) == 3 and len(farm.stacks) == 3


@both
@pytest.mark.parametrize("flows,total", [(1, 10), (3, 10), (4, 4), (4, 3), (2, 0)])
def test_send_split_counts_and_span(kind, flows, total):
    testbed = build(kind, flows=flows)
    span = testbed.send_split(total, payload_size=2000, interval_ns=1_500)
    assert span == math.ceil(total / flows) * 1_500
    report = testbed.run()
    sent = testbed.messages_sent_by_flow
    assert sum(sent.values()) == total == report.messages_sent
    base, extra = total // flows, total % flows
    assert [sent[fid] for fid in range(flows)] == [
        base + (1 if fid < extra else 0) for fid in range(flows)
    ]
    assert report.complete


@both
def test_send_split_single_flow_is_send_stream(kind):
    def run(split: bool):
        testbed = build(kind, flows=1, trace=True)
        if split:
            testbed.send_split(24, payload_size=3000, interval_ns=2_000)
        else:
            testbed.send_stream(24, payload_size=3000, interval_ns=2_000)
        testbed.run()
        return testbed.sim.events_processed, trace_digest(testbed.tracer.events())

    assert run(split=True) == run(split=False)


@both
@pytest.mark.parametrize(
    "kwargs,needle",
    [
        ({"flow": 2}, "flow 2 out of range (valid: 0..1)"),
        ({"flow": -1}, "flow -1 out of range (valid: 0..1)"),
        ({"count": -1}, "count"),
        ({"interval_ns": -5}, "interval_ns"),
    ],
)
def test_send_stream_rejects_bad_arguments_at_call_time(kind, kwargs, needle):
    testbed = build(kind, flows=2)
    args = {"count": 4, **kwargs}
    with pytest.raises(ValueError, match=needle.replace("(", r"\(").replace(")", r"\)")):
        testbed.send_stream(**args)
    # Nothing was scheduled: the run is empty instead of dying mid-sim.
    testbed.run()
    assert testbed.messages_sent == 0


@both
def test_single_flow_relays_inline_and_untagged(kind):
    testbed = build(kind, flows=1)
    assert testbed.relay_drr is None
    assert testbed.dtn1_sender is testbed.dtn1_senders[0]
    testbed.send_stream(12, payload_size=2000)
    report = testbed.run()
    assert report.dtn1_relayed == 12 and report.complete
    assert testbed.dtn1_relayed_by_flow == {0: 12}


@both
def test_multi_flow_relay_goes_through_drr(kind):
    """Multi-flow builds re-originate at DTN 1 through the deficit
    round-robin scheduler, one tagged sender per flow: every flow's
    relay is served by DRR and arrives on its own flow id."""
    testbed = build(kind, flows=3)
    drr = testbed.relay_drr
    assert drr is not None and drr.quantum_bytes == MTU_BYTES
    testbed.send_stream(30, payload_size=8000, interval_ns=0, flow=0)
    testbed.send_stream(5, payload_size=1000, interval_ns=0, flow=1)
    testbed.send_stream(5, payload_size=1000, interval_ns=0, flow=2)
    report = testbed.run()
    assert testbed.dtn1_relayed_by_flow == {0: 30, 1: 5, 2: 5}
    assert drr.services == {0: 30, 1: 5, 2: 5}
    assert [sender.stats.messages_sent for sender in testbed.dtn1_senders] == [30, 5, 5]
    assert report.complete
    rows = testbed.flow_report()
    assert [rows[fid]["delivered"] for fid in range(3)] == [30, 5, 5]
    assert [rows[fid]["relayed"] for fid in range(3)] == [30, 5, 5]


@both
def test_attach_tracer_reaches_every_hook_point(kind):
    testbed = build(kind, flows=2)
    assert testbed.tracer is None
    tracer = Tracer(testbed.sim)
    testbed.attach_tracer(tracer)
    hooked = [
        testbed.sim,
        *testbed.topology.links,
        *(port for node in testbed.topology.nodes.values() for port in node.ports.values()),
        *testbed.elements,
        *testbed.stacks,
        *testbed.traced,
    ]
    assert all(part.tracer is tracer for part in hooked)
    assert testbed.buffer in testbed.traced
    # Re-attaching swaps the tracer everywhere.
    other = Tracer(testbed.sim)
    testbed.attach_tracer(other)
    assert all(part.tracer is other for part in hooked)
    testbed.send_split(8, payload_size=2000)
    testbed.run()
    assert other.events_emitted > 0 and tracer.events_emitted == 0


@both
def test_collect_telemetry_needs_the_flag_and_names_the_config(kind):
    testbed = build(kind)
    with pytest.raises(RuntimeError, match=type(testbed.config).__name__):
        testbed.collect_telemetry()
