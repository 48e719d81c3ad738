"""INT: the postcard stack, domain enrollment, sink accounting."""

import pytest

from repro.netsim.packet import Packet
from repro.telemetry import (
    INT_BASE_BYTES,
    IntDomain,
    IntHeader,
    IntPostcard,
    IntSink,
    MetricsRegistry,
    POSTCARD_BYTES,
    TelemetryError,
)
from tests.conftest import instrument


# -- header ------------------------------------------------------------------


def test_header_push_respects_max_hops():
    header = IntHeader(max_hops=2)
    assert header.push(IntPostcard(hop_id=1, timestamp_ns=1))
    assert header.push(IntPostcard(hop_id=2, timestamp_ns=2))
    assert not header.push(IntPostcard(hop_id=3, timestamp_ns=3))
    assert [p.hop_id for p in header.hops] == [1, 2]


def test_header_copy_is_deep():
    header = IntHeader(max_hops=4)
    header.push(IntPostcard(hop_id=1, timestamp_ns=1))
    clone = header.copy()
    clone.push(IntPostcard(hop_id=2, timestamp_ns=2))
    clone.hops[0].queue_depth_pct = 77
    assert len(header.hops) == 1
    assert header.hops[0].queue_depth_pct == 0


def test_header_bytes_count_toward_packet_size():
    header = IntHeader()
    header.push(IntPostcard(hop_id=1, timestamp_ns=1))
    bare = Packet(payload_size=100)
    marked = Packet(int_=header, payload_size=100)
    assert marked.size_bytes - bare.size_bytes == INT_BASE_BYTES + POSTCARD_BYTES


# -- domain ------------------------------------------------------------------


class FakeElement:
    def __init__(self, name):
        self.name = name
        self.int_hop_id = None
        self.int_source = False
        self.int_sample_every = 1
        self.int_max_hops = 8


def test_domain_enrolls_elements_with_stable_ids():
    domain = IntDomain(max_hops=5)
    a, b = FakeElement("a"), FakeElement("b")
    id_a = domain.enroll(a, source=True, sample_every=4)
    id_b = domain.enroll(b)
    assert (id_a, id_b) == (1, 2)
    assert a.int_source and not b.int_source
    assert a.int_sample_every == 4
    assert a.int_max_hops == b.int_max_hops == 5
    assert domain.hop_names == {1: "a", 2: "b"}
    with pytest.raises(TelemetryError, match="already enrolled"):
        domain.enroll(a)
    with pytest.raises(TelemetryError, match="sample_every"):
        domain.enroll(FakeElement("c"), sample_every=0)


# -- sink --------------------------------------------------------------------


def make_marked_packet(timestamps, queue_pcts=None):
    header = IntHeader()
    for i, ts in enumerate(timestamps):
        header.push(IntPostcard(
            hop_id=i + 1, timestamp_ns=ts,
            queue_depth_pct=(queue_pcts or [0] * len(timestamps))[i],
        ))
    return Packet(int_=header, payload_size=64), header


def test_sink_strips_and_accounts_three_hops():
    reg = MetricsRegistry()
    sink = IntSink(reg, hop_names={1: "src", 2: "mid", 3: "dst"})
    packet, header = make_marked_packet([100, 350, 900], queue_pcts=[5, 60, 0])
    returned = sink.absorb(packet)
    assert returned is header
    assert packet.int_ is None  # the stack left the packet

    assert instrument(reg, "counter", "int_packets_stripped").value == 1
    assert instrument(reg, "counter", "int_postcards_total").value == 3
    for hop in ("src", "mid", "dst"):
        assert instrument(reg, "counter", "int_hop_postcards_total", hop=hop).value == 1
    seg1 = instrument(reg, "histogram", "int_segment_latency_ns", segment="src->mid")
    seg2 = instrument(reg, "histogram", "int_segment_latency_ns", segment="mid->dst")
    assert (seg1.sum, seg2.sum) == (250, 550)
    path = instrument(reg, "histogram", "int_path_latency_ns")
    assert (path.count, path.sum) == (1, 800)
    queue_mid = instrument(reg, "histogram", "int_queue_depth_pct", hop="mid")
    assert queue_mid.max == 60


def test_sink_ignores_unmarked_packets():
    reg = MetricsRegistry()
    sink = IntSink(reg)
    assert sink.absorb(Packet(payload_size=10)) is None
    assert instrument(reg, "counter", "int_packets_stripped").value == 0


def test_sink_uses_clock_for_path_latency_when_given():
    reg = MetricsRegistry()
    sink = IntSink(reg, now=lambda: 5_000)
    packet, _ = make_marked_packet([1_000, 2_000])
    sink.absorb(packet)
    path = instrument(reg, "histogram", "int_path_latency_ns")
    assert path.sum == 4_000  # sink clock minus first hop, not last hop


def test_sink_unknown_hop_gets_fallback_name():
    reg = MetricsRegistry()
    sink = IntSink(reg, hop_names={})
    packet, _ = make_marked_packet([10])
    sink.absorb(packet)
    assert instrument(reg, "counter", "int_hop_postcards_total", hop="hop1").value == 1

