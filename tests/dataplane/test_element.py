"""Programmable elements in a live topology: forwarding, clones,
generated control packets, device models (NAK service:
``tests/core/test_nak_service.py``, over both hosts)."""

import pytest

from repro.core import Feature, MmtHeader, MmtStack, make_experiment_id
from repro.dataplane import (
    ALVEO_STAGES,
    AlveoNic,
    BackpressureProgram,
    BufferTapProgram,
    ProgrammableElement,
    TOFINO2_STAGES,
    TofinoSwitch,
)
from repro.netsim import EthernetHeader, IpProto, Ipv4Header, Packet, Topology, units
from repro.trace import Tracer

EXP = 5
EXP_ID = make_experiment_id(EXP)


def build_chain(sim, element):
    """a --- element --- b, with routes installed."""
    topo = Topology(sim)
    a = topo.add_host("a", ip="10.0.1.2")
    b = topo.add_host("b", ip="10.0.2.2")
    topo.add(element)
    topo.connect(a, element, units.gbps(10), 1000)
    topo.connect(element, b, units.gbps(10), 1000)
    topo.install_routes()
    return topo, a, b


def test_non_mmt_traffic_passes_through(sim):
    element = ProgrammableElement(sim, "el", mac="02:00:00:00:00:01")
    _topo, a, b = build_chain(sim, element)
    got = []
    b.register_l3_protocol(IpProto.UDP, got.append)
    a.send_ip(b.ip, IpProto.UDP, payload_size=50)
    sim.run()
    assert len(got) == 1
    assert element.stats.passthrough == 1
    assert element.stats.mmt_processed == 0


def test_non_ip_destination_counts_as_no_route(sim):
    """A hostile ip.dst is a counted drop, not a ValueError out of run()."""
    element = ProgrammableElement(sim, "el", mac="02:00:00:00:00:01", ip="10.0.0.50")
    _topo, a, b = build_chain(sim, element)
    got = []
    b.register_l3_protocol(IpProto.UDP, got.append)
    a.send_ip(b.ip, IpProto.UDP, payload_size=50)
    sim.run()
    # Same packet, destination rewritten in flight to something unparseable.
    hostile = got[0].copy()
    hostile.ip.dst = "not-an-ip"
    element.receive(hostile, element.ports["to_a"])
    sim.run()
    assert len(got) == 1
    assert element.stats.dropped_no_route == 1


def test_mmt_traffic_runs_pipeline_then_forwards(sim):
    element = ProgrammableElement(sim, "el", mac="02:00:00:00:00:01")
    _topo, a, b = build_chain(sim, element)
    stack_a = MmtStack(a)
    stack_b = MmtStack(b)
    got = []
    stack_b.bind_receiver(EXP, on_message=lambda p, h: got.append(h))
    sender = stack_a.create_sender(experiment_id=EXP_ID, mode="identify", dst_ip=b.ip)
    sender.send(100)
    sim.run()
    assert len(got) == 1
    assert element.stats.mmt_processed == 1


def test_buffer_requires_ip(sim):
    element = ProgrammableElement(sim, "el", mac="02:00:00:00:00:01")
    with pytest.raises(ValueError):
        element.attach_buffer(1000)


def test_mirror_to_buffer_via_tap_program(sim):
    element = ProgrammableElement(sim, "el", mac="02:00:00:00:00:01", ip="10.0.0.50")
    _topo, a, b = build_chain(sim, element)
    buffer = element.attach_buffer(1_000_000)
    BufferTapProgram(buffer_addr="10.0.0.50").install(element)
    stack_a = MmtStack(a)
    stack_a.attach_buffer(1_000_000)
    stack_b = MmtStack(b)
    stack_b.bind_receiver(EXP, on_message=lambda p, h: None)
    sender = stack_a.create_sender(
        experiment_id=EXP_ID, mode="age-recover", dst_ip=b.ip,
        age_budget_ns=units.seconds(1), buffer_local=True,
    )
    for _ in range(3):
        sender.send(256)
    sender.finish()
    sim.run()
    assert element.stats.mirrored_to_buffer == 3
    assert len(buffer) == 3


class TestDeviceModels:
    def test_tofino_stage_budget(self, sim):
        switch = TofinoSwitch(sim, "t", mac="02:00:00:00:00:02")
        assert switch.pipeline.stages == TOFINO2_STAGES

    def test_tofino_adds_pipeline_latency(self, sim):
        switch = TofinoSwitch(sim, "t", mac="02:00:00:00:00:02", pipeline_latency_ns=600)
        _topo, a, b = build_chain(sim, switch)
        got = []
        b.register_l3_protocol(IpProto.UDP, lambda p: got.append(sim.now))
        a.send_ip(b.ip, IpProto.UDP, payload_size=100)
        sim.run()
        without = TofinoSwitch(sim, "t2", mac="02:00:00:00:00:03", pipeline_latency_ns=0)
        assert got  # delivered despite latency insertion
        # The 600 ns shows up in the arrival time: compare to the raw
        # link budget (2 x 1000 ns propagation + serialization).
        assert got[0] > 2600

    def test_alveo_port_limit(self, sim):
        nic = AlveoNic.u280(sim, "n", mac="02:00:00:00:00:04")
        nic.add_port("host")
        nic.add_port("net")
        with pytest.raises(ValueError):
            nic.add_port("to_extra")

    def test_alveo_port_names_validated(self, sim):
        nic = AlveoNic.u280(sim, "n", mac="02:00:00:00:00:05")
        with pytest.raises(ValueError):
            nic.add_port("weird")

    def test_alveo_buffer_bounded_by_hbm(self, sim):
        nic = AlveoNic.u280(sim, "n", mac="02:00:00:00:00:06", ip="10.0.0.1")
        with pytest.raises(ValueError):
            nic.attach_buffer(nic.hbm_bytes + 1)

    def test_alveo_u55c_has_more_hbm_than_u280(self, sim):
        u280 = AlveoNic.u280(sim, "a", mac="02:00:00:00:00:07")
        u55c = AlveoNic.u55c(sim, "b", mac="02:00:00:00:00:08")
        assert u55c.hbm_bytes > u280.hbm_bytes
        assert u280.pipeline.stages == ALVEO_STAGES


class TestQueueScan:
    """The all-ports queue scan runs only when something reads its value:
    a tracer's spans, an INT postcard, or a table keyed on
    ``meta.queue_occupancy_pct``."""

    PORTS = 65  # the fleet balancer's Tofino2

    def element(self, sim):
        """A 65-port element whose fullest queue is 37 % full."""
        element = ProgrammableElement(sim, "el", mac="02:00:00:00:00:01", ip="10.0.0.1")
        for i in range(self.PORTS):
            element.add_port(f"p{i}")
        hot = element.ports["p7"].queue
        assert hot.enqueue(Packet(payload_size=hot.capacity_bytes * 37 // 100))
        scans = []
        scan = element._max_queue_occupancy_pct
        element._max_queue_occupancy_pct = lambda: scans.append(scan()) or scans[-1]
        return element, scans

    def process(self, element):
        packet = Packet(eth=EthernetHeader(), ip=Ipv4Header(dst="10.9.9.9"), payload_size=200,
                        mmt=MmtHeader(features=Feature.BACKPRESSURE, source_addr="10.0.0.2"))
        element.process_mmt(packet, element.ports["p0"], packet.eth, packet.ip, packet.mmt)
        return packet

    def test_no_reader_no_scan(self, sim):
        element, scans = self.element(sim)
        self.process(element)
        assert scans == [] and element.stats.mmt_processed == 1

    def test_spans_see_the_scanned_value(self, sim):
        element, scans = self.element(sim)
        element.tracer = Tracer(sim)
        self.process(element)
        seen = [event.attrs["queue_pct"] for event in element.tracer.events()
                if event.kind in ("element.ingress", "element.egress")]
        assert scans == [37] and seen == [37, 37]

    def test_postcards_see_the_scanned_value(self, sim):
        element, scans = self.element(sim)
        element.int_hop_id, element.int_source = 3, True
        packet = self.process(element)
        assert scans == [37]
        assert [hop.queue_depth_pct for hop in packet.int_.hops] == [37]

    @pytest.mark.parametrize("threshold, signals", [(37, 1), (38, 0)])
    def test_the_backpressure_table_sees_the_scanned_value(self, sim, threshold, signals):
        element, scans = self.element(sim)
        program = BackpressureProgram(occupancy_threshold_pct=threshold, min_interval_ns=0)
        program.install(element)
        self.process(element)
        assert scans == [37] and program.signals_sent == signals
