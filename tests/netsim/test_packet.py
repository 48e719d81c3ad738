"""Packets: header slots, and a wire size that is the sum of its parts.

``Packet.size_bytes`` is a plain int summed once at construction; the
writes that change a header's size after that (a mode rewrite, INT
marking and postcards, INT removal) go through the packet's ``attach``,
``rewrite`` and ``detach``, which move it by as much. The property
below drives every shipped mode pair through those writes and checks
the sum after each; the run-level test checks it at every delivery of
a lossy, INT-marked pilot.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Feature, MmtHeader
from repro.core.modes import TransitionContext, transition
from repro.dataplane import ModeTransitionProgram, PilotConfig, PilotTestbed, TransitionRule
from repro.dataplane.element import ProgrammableElement
from repro.dataplane.pipeline import Metadata
from repro.integration.incast import incast_registry
from repro.netsim import EthernetHeader, IpProto, Ipv4Header, Packet, Simulator, TcpHeader, UdpHeader
from repro.netsim.link import Port
from repro.netsim.units import MILLISECOND
from repro.telemetry import IntDomain, IntHeader, IntPostcard, IntSink, MetricsRegistry


def make_packet(payload_size=100):
    return Packet(
        eth=EthernetHeader(), ip=Ipv4Header(), l4=UdpHeader(),
        payload_size=payload_size,
    )


def summed(packet):
    return sum(h.size_bytes for h in packet.headers) + packet.payload_size


def test_size_sums_headers_and_payload():
    p = make_packet(100)
    # eth 14+4, ip 20, udp 8, payload 100
    assert p.size_bytes == 18 + 20 + 8 + 100


def test_payload_bytes_set_size():
    p = Packet(payload=b"hello")
    assert p.payload_size == 5
    assert p.size_bytes == 5


def test_negative_payload_rejected():
    with pytest.raises(ValueError):
        Packet(payload_size=-1)


def test_slots_hold_one_header_per_kind():
    eth, ip, tcp, mmt = EthernetHeader(), Ipv4Header(), TcpHeader(), MmtHeader()
    p = Packet(eth=eth, ip=ip, l4=tcp, mmt=mmt, payload_size=10)
    assert (p.eth, p.ip, p.l4, p.mmt, p.int_) == (eth, ip, tcp, mmt, None)
    assert p.size_bytes == 18 + 20 + 20 + 8 + 10
    assert Packet(mmt=mmt, eth=eth).headers == (eth, mmt)  # outermost first
    assert make_packet().mmt is None


def test_two_headers_of_one_kind_rejected():
    p = Packet(l4=UdpHeader(), payload_size=10)
    with pytest.raises(ValueError, match="two l4 headers"):
        p.attach(TcpHeader())
    assert type(p.l4) is UdpHeader and p.size_bytes == 8 + 10


def test_attach_rewrite_and_detach_move_the_size():
    p = make_packet(10)
    stack = IntHeader()
    p.attach(stack)
    assert p.int_ is stack and p.size_bytes == summed(p) == 18 + 20 + 8 + 4 + 10
    assert p.rewrite("int_", IntHeader.push, IntPostcard(hop_id=1, timestamp_ns=0)) == 16
    assert p.size_bytes == summed(p) == 18 + 20 + 8 + 4 + 16 + 10
    assert p.detach("int_") is stack and p.detach("int_") is None
    assert p.size_bytes == summed(p) == 18 + 20 + 8 + 10


def test_packet_ids_unique():
    assert make_packet().packet_id != make_packet().packet_id


def test_copy_is_independent():
    p = make_packet()
    p.meta["flow"] = "x"
    clone = p.copy()
    assert clone.packet_id != p.packet_id
    clone.ip.ttl = 1
    assert p.ip.ttl == 64
    clone.meta["flow"] = "y"
    assert p.meta["flow"] == "x"


def test_copy_shares_payload_bytes():
    p = Packet(payload=b"data")
    assert p.copy().payload is p.payload


def test_meta_is_a_dict_of_its_own():
    p, q = Packet(), Packet()
    p.meta["flow"] = 1
    assert q.meta == {} and p.copy().meta == {"flow": 1}


def test_tcp_header_sack_sizing():
    plain = TcpHeader()
    assert plain.size_bytes == 20
    sacked = TcpHeader(sack_blocks=((0, 10), (20, 30)))
    assert sacked.size_bytes == 20 + 2 + 16
    assert Packet(l4=sacked, payload_size=10).size_bytes == 20 + 2 + 16 + 10


def test_iteration_outermost_first():
    p = make_packet()
    names = [type(h).__name__ for h in p.headers]
    assert names == ["EthernetHeader", "Ipv4Header", "UdpHeader"]


def test_repr_mentions_headers():
    assert "Ipv4Header" in repr(make_packet())


def test_size_memo_survives_value_only_rewrites():
    """Per-hop rewrites of fixed-size fields (TTL, MACs, ports) leave
    the size exactly as it was."""
    p = make_packet(100)
    before = p.size_bytes
    p.ip.ttl -= 1
    p.ip.dscp = 46
    p.eth.dst = "02:00:00:00:00:01"
    p.l4.src_port, p.l4.dst_port = 4000, 4001
    assert p.size_bytes == before == summed(p) == 18 + 20 + 8 + 100


def test_value_only_rewrites_neither_change_nor_invalidate():
    """Per-hop rewrites that cannot change the wire size (TTL, MACs,
    seq, age) are plain slot writes: the size stays the sum."""
    header = MmtHeader(features=Feature.SEQUENCED | Feature.AGE_TRACKING,
                       seq=0, age_ns=0, age_budget_ns=1)
    p = Packet(eth=EthernetHeader(), ip=Ipv4Header(), mmt=header, payload_size=64)
    size = p.size_bytes
    p.ip.ttl -= 1
    p.ip.dscp = 46
    p.eth.src, p.eth.dst = "02:00:00:00:00:01", "02:00:00:00:00:02"
    header.seq, header.age_ns, header.age_budget_ns, header.aged = 7, 1_000, 5_000, True
    header.config_id = 2
    assert p.size_bytes == size == summed(p) == 18 + 20 + 8 + 4 + 17 + 64


# -- the size invariant ----------------------------------------------------------

MODES = list(incast_registry())
#: Values for every feature a mode can switch on.
ACTIVATE = dict(buffer_addr="10.0.0.9", age_budget_ns=10**9, deadline_offset_ns=10**6,
                notify_addr="10.0.0.8", pace_rate_mbps=100, source_addr="10.0.0.7",
                dup_group=1, dup_copies=2)


def in_mode(mode, flow: bool, payload: int) -> Packet:
    header = MmtHeader(experiment_id=1 << 8, features=Feature.FLOW_ID if flow else Feature.NONE,
                       flow_id=3 if flow else None)
    ctx = TransitionContext(seq=0, deadline_ns=1, **{
        k: v for k, v in ACTIVATE.items() if k != "deadline_offset_ns"})
    transition(header, mode, ctx)
    return Packet(eth=EthernetHeader(), ip=Ipv4Header(proto=IpProto.MMT), mmt=header,
                  payload_size=payload)


def rewriting_element(source, target, max_hops: int) -> ProgrammableElement:
    element = ProgrammableElement(Simulator(), "e", mac="02:00:00:00:00:09", ip="10.0.0.1")
    ModeTransitionProgram(incast_registry(), [
        TransitionRule(source.config_id, target.name, **ACTIVATE)]).install(element)
    IntDomain(max_hops).enroll(element, source=True)
    return element


@settings(max_examples=20, deadline=None)
@given(flow=st.booleans(), payload=st.integers(0, 9000), max_hops=st.integers(1, 3),
       pushes=st.integers(0, 5), copy_at=st.sampled_from(["built", "rewritten", "marked"]))
def test_size_is_the_sum_of_the_headers_through_every_rewrite(
        flow, payload, max_hops, pushes, copy_at):
    """Every shipped mode pair through ``transition_mode``, INT marking,
    pushes up to a full stack and removal, with a copy taken on the
    way that must resize on its own."""
    for source in MODES:
        for target in MODES:
            packet = in_mode(source, flow, payload)
            element = rewriting_element(source, target, max_hops)
            copies = {}
            if copy_at == "built":
                copies[packet.copy()] = packet.size_bytes
            element.pipeline.process(packet, Metadata(now_ns=5))
            assert packet.mmt.config_id == target.config_id
            assert packet.size_bytes == summed(packet), (source.name, target.name)
            if copy_at == "rewritten":
                copies[packet.copy()] = packet.size_bytes
            for push in range(pushes):
                element._int_push(packet, packet.mmt, queue_pct=push)
                assert packet.size_bytes == summed(packet)
                if copy_at == "marked" and not copies:
                    copies[packet.copy()] = packet.size_bytes
            stack = IntSink(MetricsRegistry()).absorb(packet)
            assert (stack is None) == (pushes == 0)
            assert packet.int_ is None and packet.size_bytes == summed(packet)
            for twin, size in copies.items():
                assert twin.size_bytes == size == summed(twin)
                if twin.int_ is None:
                    element._int_push(twin, twin.mmt, queue_pct=0)  # the copy grows alone
                else:
                    IntSink(MetricsRegistry()).absorb(twin)  # the copy shrinks alone
                assert twin.size_bytes == summed(twin) != size
                assert packet.size_bytes == summed(packet)


def test_size_field_writes_reach_a_cached_size():
    """The writes that change a header's size carry the change to the
    packet: a mode rewrite, INT marking and each postcard, INT removal."""
    identify, deliver_check = MODES[0], MODES[2]
    packet = in_mode(identify, flow=False, payload=64)
    assert packet.size_bytes == 18 + 20 + 8 + 64
    element = rewriting_element(identify, deliver_check, max_hops=2)
    element.pipeline.process(packet, Metadata(now_ns=5))
    assert packet.mmt.config_id == deliver_check.config_id
    assert packet.size_bytes == 18 + 20 + 45 + 64 == summed(packet)
    rewritten = packet.size_bytes
    element._int_push(packet, packet.mmt, queue_pct=0)  # marks and pushes
    assert packet.size_bytes == rewritten + 4 + 16 == summed(packet)
    element._int_push(packet, packet.mmt, queue_pct=0)
    element._int_push(packet, packet.mmt, queue_pct=0)  # full: no change
    assert packet.size_bytes == rewritten + 4 + 2 * 16 == summed(packet)
    IntSink(MetricsRegistry()).absorb(packet)
    assert packet.size_bytes == rewritten == summed(packet)


def test_copy_has_its_own_caches():
    """A copy owns its headers and its size: an INT push on the copy
    leaves the original as it was, and the other way round."""
    element = rewriting_element(MODES[0], MODES[0], max_hops=2)
    packet = in_mode(MODES[0], flow=True, payload=64)
    clone = packet.copy()
    assert clone.size_bytes == packet.size_bytes == summed(packet)
    assert clone.mmt is not packet.mmt and clone.mmt == packet.mmt
    element._int_push(clone, clone.mmt, queue_pct=0)
    assert clone.size_bytes == packet.size_bytes + 4 + 16 == summed(clone)
    assert packet.int_ is None and packet.size_bytes == summed(packet)
    element._int_push(packet, packet.mmt, queue_pct=0)
    element._int_push(packet, packet.mmt, queue_pct=0)
    assert packet.size_bytes == clone.size_bytes + 16 == summed(packet)
    assert len(clone.int_.hops) == 1


def test_a_full_int_stack_adds_nothing():
    element = rewriting_element(MODES[0], MODES[0], max_hops=1)
    packet = in_mode(MODES[0], flow=False, payload=10)
    element._int_push(packet, packet.mmt, queue_pct=0)
    full = packet.size_bytes
    element._int_push(packet, packet.mmt, queue_pct=0)
    assert packet.size_bytes == full == summed(packet) == 18 + 20 + 8 + 4 + 16 + 10
    assert element.stats.int_stack_full == 1
    assert not packet.int_.push(IntPostcard(hop_id=9, timestamp_ns=0))
    assert isinstance(packet.int_, IntHeader)


def test_every_delivered_packet_is_sized_right(monkeypatch):
    """An 800-message pilot with INT on and 1 % WAN loss (so NAKs and
    buffer-served repairs too): at every ``Port.deliver`` the size is
    the sum of the headers and the payload."""
    deliver = Port.deliver
    delivered = []

    def checked(port, packet):
        assert packet.size_bytes == summed(packet), packet
        delivered.append(packet.int_ is not None)
        deliver(port, packet)

    monkeypatch.setattr(Port, "deliver", checked)
    config = PilotConfig(wan_delay_ns=10 * MILLISECOND, wan_loss_rate=0.01, telemetry=True)
    pilot = PilotTestbed(Simulator(seed=31), config)
    pilot.send_stream(800, payload_size=8000, interval_ns=2_000)
    report = pilot.run()
    assert report.complete and report.naks_sent > 0
    assert len(delivered) > 6 * 800 and any(delivered)
