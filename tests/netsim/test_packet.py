"""Packet and header-stack behaviour."""

import pytest

from repro.core import Feature, MmtHeader
from repro.netsim import EthernetHeader, Ipv4Header, Packet, TcpHeader, UdpHeader
from repro.netsim.headers import Header
from repro.telemetry.inband import POSTCARD_BYTES, IntHeader, IntPostcard


def make_packet(payload_size=100):
    return Packet(
        headers=[EthernetHeader(), Ipv4Header(), UdpHeader()],
        payload_size=payload_size,
    )


def test_size_sums_headers_and_payload():
    p = make_packet(100)
    # eth 14+4, ip 20, udp 8, payload 100
    assert p.size_bytes == 18 + 20 + 8 + 100


def test_payload_bytes_set_size():
    p = Packet(headers=[], payload=b"hello")
    assert p.payload_size == 5
    assert p.size_bytes == 5


def test_negative_payload_rejected():
    with pytest.raises(ValueError):
        Packet(payload_size=-1)


def test_find_and_require():
    p = make_packet()
    assert isinstance(p.find(Ipv4Header), Ipv4Header)
    assert p.find(TcpHeader) is None
    with pytest.raises(KeyError):
        p.require(TcpHeader)


def test_packet_ids_unique():
    assert make_packet().packet_id != make_packet().packet_id


def test_copy_is_independent():
    p = make_packet()
    p.meta["flow"] = "x"
    clone = p.copy()
    assert clone.packet_id != p.packet_id
    clone.find(Ipv4Header).ttl = 1
    assert p.find(Ipv4Header).ttl == 64
    clone.meta["flow"] = "y"
    assert p.meta["flow"] == "x"


def test_copy_shares_payload_bytes():
    p = Packet(payload=b"data")
    assert p.copy().payload is p.payload


def test_tcp_header_sack_sizing():
    plain = TcpHeader()
    assert plain.size_bytes == 20
    sacked = TcpHeader(sack_blocks=((0, 10), (20, 30)))
    assert sacked.size_bytes == 20 + 2 + 16


def test_iteration_outermost_first():
    p = make_packet()
    names = [type(h).__name__ for h in p]
    assert names == ["EthernetHeader", "Ipv4Header", "UdpHeader"]


def test_repr_mentions_headers():
    assert "Ipv4Header" in repr(make_packet())


# -- memoized size_bytes invalidation -----------------------------------------
# size_bytes is cached (it is the per-hop hot path); these pin every
# way the cache must be refreshed.


def test_size_memo_tracks_structural_mutation():
    p = make_packet(100)
    assert p.size_bytes == 18 + 20 + 8 + 100
    p.headers.insert(0, EthernetHeader())  # encapsulation
    assert p.size_bytes == 18 + 18 + 20 + 8 + 100
    p.headers.pop(0)
    assert p.size_bytes == 18 + 20 + 8 + 100
    p.headers.remove(p.find(UdpHeader))  # in-place deque mutation
    assert p.size_bytes == 18 + 20 + 100
    p.headers.append(TcpHeader())
    assert p.size_bytes == 18 + 20 + 20 + 100
    p.headers.clear()
    assert p.size_bytes == 100


def test_size_memo_tracks_size_affecting_field_write():
    p = Packet(headers=[TcpHeader()], payload_size=10)
    assert p.size_bytes == 20 + 10
    # sack_blocks is a size_fields() entry: assignment must invalidate.
    p.find(TcpHeader).sack_blocks = ((0, 10),)
    assert p.size_bytes == 20 + 2 + 8 + 10


def test_size_memo_survives_value_only_rewrites():
    """Per-hop rewrites of fixed-size fields (TTL, MACs, ports) must
    neither change nor invalidate the cached size."""
    p = make_packet(100)
    before = p.size_bytes
    ip = p.find(Ipv4Header)
    ip.ttl -= 1
    ip.dscp = 46
    p.find(EthernetHeader).dst = "02:00:00:00:00:01"
    assert p.size_bytes == before


def test_size_memo_tracks_setitem_replacement():
    p = make_packet(0)
    p.headers[2] = TcpHeader()
    assert p.size_bytes == 18 + 20 + 20


def test_meta_is_lazy():
    p = Packet()
    assert p._meta is None  # no dict allocated until first access
    p.meta["flow"] = 1
    assert p._meta == {"flow": 1}
    assert p.copy().meta == {"flow": 1}


# -- cache invalidation matrix -------------------------------------------------
# size_bytes and find() answer from per-packet caches; every way the
# header stack or a header's size can change must reach both. Each case
# warms the caches, mutates, and compares with a from-scratch answer.

PROBE_TYPES = (EthernetHeader, Ipv4Header, UdpHeader, TcpHeader, MmtHeader, Header)


def fresh_size(packet):
    return sum(h.size_bytes for h in packet.headers) + packet.payload_size


def fresh_find(packet, header_type):
    return next((h for h in packet.headers if isinstance(h, header_type)), None)


def warm(packet):
    packet.size_bytes
    for header_type in PROBE_TYPES:
        packet.find(header_type)


def assert_caches_fresh(packet):
    assert packet.size_bytes == fresh_size(packet)
    for header_type in PROBE_TYPES:
        assert packet.find(header_type) is fresh_find(packet, header_type)


def _iadd(stack):
    stack += [TcpHeader()]


def _imul(stack):
    stack *= 2


def _slice_assign(stack):
    stack[1:] = [TcpHeader()]


def _slice_delete(stack):
    del stack[:2]


STACK_MUTATORS = {
    "append": lambda stack: stack.append(TcpHeader()),
    "pop": lambda stack: stack.pop(),
    "remove": lambda stack: stack.remove(stack[1]),
    "insert": lambda stack: stack.insert(1, TcpHeader()),
    "extend": lambda stack: stack.extend([TcpHeader(), UdpHeader()]),
    "clear": lambda stack: stack.clear(),
    "__setitem__": lambda stack: stack.__setitem__(2, TcpHeader()),
    "__delitem__": lambda stack: stack.__delitem__(0),
    "+=": _iadd,
    # What a list can do that the deque this stack used to be could not.
    "sort": lambda stack: stack.sort(key=lambda header: header.size_bytes),
    "reverse": lambda stack: stack.reverse(),
    "*=": _imul,
    "slice assignment": _slice_assign,
    "slice deletion": _slice_delete,
    "pop(index)": lambda stack: stack.pop(1),
}


@pytest.mark.parametrize("mutator", STACK_MUTATORS)
def test_every_stack_mutator_refreshes_size_and_find(mutator):
    p = make_packet(100)
    warm(p)
    STACK_MUTATORS[mutator](p.headers)
    assert_caches_fresh(p)
    # ... and again from the now-warm state, back to back.
    p.headers.insert(0, EthernetHeader())
    assert_caches_fresh(p)


def mmt_packet():
    return Packet(
        headers=[EthernetHeader(), Ipv4Header(), MmtHeader(experiment_id=1)],
        payload_size=64,
    )


def test_size_field_writes_reach_a_cached_size():
    p = mmt_packet()
    assert p.size_bytes == 18 + 20 + 8 + 64
    mmt = p.find(MmtHeader)
    mmt.features = Feature.SEQUENCED | Feature.AGE_TRACKING
    assert p.size_bytes == 18 + 20 + 8 + 4 + 17 + 64
    mmt.features = Feature.NONE
    assert p.size_bytes == 18 + 20 + 8 + 64

    # (TcpHeader.sack_blocks: test_size_memo_tracks_size_affecting_field_write.)

    telemetry = IntHeader(max_hops=2)
    p.headers.append(telemetry)
    before = p.size_bytes
    assert telemetry.push(IntPostcard(hop_id=1, timestamp_ns=5))  # in-place growth
    assert p.size_bytes == before + POSTCARD_BYTES
    assert telemetry.push(IntPostcard(hop_id=2, timestamp_ns=6))
    assert not telemetry.push(IntPostcard(hop_id=3, timestamp_ns=7))  # full: no change
    assert p.size_bytes == before + 2 * POSTCARD_BYTES == fresh_size(p)


def test_one_header_in_two_packets_keeps_both_sizes_right():
    shared = MmtHeader(experiment_id=1)
    a = Packet(headers=[EthernetHeader(), shared], payload_size=10)
    b = Packet(headers=[shared], payload_size=20)
    assert (a.size_bytes, b.size_bytes) == (18 + 8 + 10, 8 + 20)
    shared.features = Feature.SEQUENCED
    assert (a.size_bytes, b.size_bytes) == (18 + 12 + 10, 12 + 20)
    shared.features = Feature.SEQUENCED | Feature.FLOW_ID
    # Read in the other order: whichever packet summed last must not
    # leave the other one stale.
    assert (b.size_bytes, a.size_bytes) == (14 + 20, 18 + 14 + 10)
    b.headers.clear()
    shared.features = Feature.NONE
    assert (a.size_bytes, b.size_bytes) == (18 + 8 + 10, 20)


def test_subclass_found_through_base_type_outermost_first():
    class VlanEthernet(EthernetHeader):
        pass

    inner, outer = EthernetHeader(src="02:00:00:00:00:01"), VlanEthernet()
    p = Packet(headers=[Ipv4Header(), inner])
    assert p.find(EthernetHeader) is inner
    assert p.find(VlanEthernet) is None
    p.headers.insert(0, outer)
    assert p.find(EthernetHeader) is outer  # outermost match wins
    assert p.find(VlanEthernet) is outer
    assert p.find(Header) is outer
    p.headers.pop(0)
    assert p.find(EthernetHeader) is inner
    assert p.find(VlanEthernet) is None
    # Same type sequence, different packet: the shared shape index
    # must not leak one packet's headers into another.
    q = Packet(headers=[Ipv4Header(), EthernetHeader()])
    assert q.find(EthernetHeader) is q.headers[1]


def test_copy_has_its_own_caches():
    p = mmt_packet()
    warm(p)
    clone = p.copy()
    assert clone.size_bytes == p.size_bytes
    assert clone.find(MmtHeader) is not p.find(MmtHeader)
    clone.find(MmtHeader).features = Feature.SEQUENCED
    clone.headers.pop(0)
    assert p.size_bytes == 18 + 20 + 8 + 64
    assert p.find(EthernetHeader) is p.headers[0]
    assert clone.size_bytes == 20 + 12 + 64
    assert clone.find(EthernetHeader) is None
    p.find(MmtHeader).features = Feature.FLOW_ID
    assert clone.size_bytes == 20 + 12 + 64


def test_value_only_rewrites_neither_change_nor_invalidate():
    """Per-hop rewrites that cannot change the wire size (TTL, MACs,
    seq, age) are plain slot writes: the memoized size and the type
    index both stay exactly as they were."""
    p = mmt_packet()
    mmt = p.find(MmtHeader)
    mmt.features = Feature.SEQUENCED | Feature.AGE_TRACKING
    warm(p)
    memo = p._memo
    size, cached, index = p.size_bytes, memo.hsize, memo.index
    assert cached >= 0
    ip, eth = p.find(Ipv4Header), p.find(EthernetHeader)
    ip.ttl -= 1
    ip.dscp = 46
    eth.src, eth.dst = "02:00:00:00:00:01", "02:00:00:00:00:02"
    mmt.seq, mmt.age_ns, mmt.age_budget_ns, mmt.aged = 7, 1_000, 5_000, True
    mmt.config_id = 2
    assert p._memo is memo and memo.hsize == cached and memo.index is index
    assert p.size_bytes == size == fresh_size(p)
    assert p.find(MmtHeader) is mmt
