"""Compiled match-action tables vs the interpreter they replaced.

:class:`~repro.dataplane.pipeline.Table` compiles its key readers and
its match structure (entries hashed on their exact patterns, the other
patterns pre-parsed into matchers) when it is programmed. The per-packet
interpreter it replaced — ``Table._build_key`` / ``_matches`` /
``_lpm_match`` — is retained below as the oracle (its memo dicts and
its detour through ``PacketView.get`` aside), and random
tables and packets go through both: the same entry must win, the same
three counters must move, and a table edited between two packets must
serve the second from the new entries.
"""

import ipaddress

import pytest

from repro.core import MmtHeader, pilot_registry
from repro.dataplane import (
    Action,
    MatchKind,
    Metadata,
    ModeTransitionProgram,
    PacketView,
    ProgrammableElement,
    Table,
    TransitionRule,
)
from repro.dataplane.pipeline import HEADER_TYPES
from repro.netsim import EthernetHeader, Ipv4Header, Packet, Simulator
from tests.proptest.strategies import Gen, cases

# -- the interpreter, as it stood before tables were compiled -----------------


def reference_key(table: Table, packet: Packet, meta: Metadata):
    values = []
    for path in table.keys:
        if path.startswith("meta."):
            attr = path[5:]
            if attr in meta.scratch:
                values.append(meta.scratch[attr])
            else:
                values.append(getattr(meta, attr, None))
            continue
        header_name, attr = path.split(".", 1)
        header = packet.find(HEADER_TYPES[header_name])
        if header is None:
            return None  # parser would not have extracted this header
        values.append(getattr(header, attr))
    return tuple(values)


def reference_lpm_match(pattern, value) -> bool:
    try:
        network = ipaddress.ip_network(pattern, strict=False)
        addr = ipaddress.ip_address(value)
    except ValueError:
        return False
    if addr.version != network.version:
        return False
    return (int(addr) & int(network.netmask)) == int(network.network_address)


def reference_matches(table: Table, patterns, key) -> bool:
    for kind, pattern, value in zip(table.match_kinds, patterns, key):
        if pattern is None:
            continue
        if kind == MatchKind.EXACT:
            if value != pattern:
                return False
        elif kind == MatchKind.TERNARY:
            want, mask = pattern
            if not isinstance(value, int):
                return False
            if (value & mask) != (want & mask):
                return False
        elif kind == MatchKind.LPM:
            if not reference_lpm_match(pattern, value):
                return False
        elif kind == MatchKind.RANGE:
            lo, hi = pattern
            if not isinstance(value, int) or not lo <= value <= hi:
                return False
    return True


def reference_winner(table: Table, packet: Packet, meta: Metadata):
    """The entry the interpreter would hit (``None``: the default)."""
    key = reference_key(table, packet, meta)
    if key is None:
        return None
    for entry in table.entries:
        if reference_matches(table, entry.patterns, key):
            return entry
    return None


# -- generators ---------------------------------------------------------------

PORTS = ("p1", "p2", "")
ADDRESSES = ("10.0.0.1", "10.0.0.200", "10.0.1.7", "192.168.5.5", "not-an-address")
PREFIXES = ("10.0.0.0/24", "10.0.0.0/16", "10.0.0.1/32", "0.0.0.0/0", "::/0", "bogus/99")

#: key path → (match kinds it supports, pattern drawer per kind). Field
#: domains are tiny so that random patterns actually hit.
KEYS = {
    "meta.ingress_port": {MatchKind.EXACT: lambda g: g.choice(PORTS)},
    "meta.queue_occupancy_pct": {
        MatchKind.EXACT: lambda g: g.integer(0, 3),
        MatchKind.RANGE: lambda g: (g.integer(0, 2), g.integer(1, 3)),
        MatchKind.TERNARY: lambda g: (g.integer(0, 3), g.integer(0, 3)),
    },
    "meta.flag": {MatchKind.EXACT: lambda g: g.choice((True, False, 1, 0, None))},
    "mmt.config_id": {
        MatchKind.EXACT: lambda g: g.integer(0, 3),
        MatchKind.RANGE: lambda g: (g.integer(0, 2), g.integer(1, 3)),
        MatchKind.TERNARY: lambda g: (g.integer(0, 3), g.integer(0, 3)),
    },
    "mmt.seq": {
        MatchKind.EXACT: lambda g: g.choice((0, 1, 2)),
        MatchKind.RANGE: lambda g: (0, g.integer(0, 2)),
    },
    "mmt.aged": {MatchKind.EXACT: lambda g: g.choice((True, False, 1))},
    "mmt.buffer_addr": {
        MatchKind.EXACT: lambda g: g.choice(ADDRESSES),
        MatchKind.LPM: lambda g: g.choice(PREFIXES),
    },
    "ip.dst": {
        MatchKind.EXACT: lambda g: g.choice(ADDRESSES),
        MatchKind.LPM: lambda g: g.choice(PREFIXES),
    },
    "ip.dscp": {MatchKind.EXACT: lambda g: g.integer(0, 2)},
}


def arbitrary_pattern(gen: Gen, path: str, kind: str):
    if gen.boolean(0.3):
        return None  # wildcard
    if kind == MatchKind.EXACT and gen.boolean(0.05):
        return [1]  # unhashable: the table must fall back, not crash
    return KEYS[path][kind](gen)


def arbitrary_packet(gen: Gen) -> tuple[Packet, Metadata]:
    headers = [EthernetHeader()]
    if gen.boolean(0.8):  # MMT directly over Ethernet otherwise
        headers.append(Ipv4Header(dst=gen.choice(ADDRESSES), dscp=gen.integer(0, 2)))
    if gen.boolean(0.9):
        headers.append(MmtHeader(
            config_id=gen.integer(0, 3),
            seq=gen.choice((None, 0, 1, 2)),
            aged=gen.boolean(),
            buffer_addr=gen.choice((None, *ADDRESSES)),
        ))
    meta = Metadata(
        ingress_port=gen.choice(PORTS),
        queue_occupancy_pct=gen.choice((None, 0, 1, 2, 3)),
    )
    if gen.boolean(0.3):
        meta.scratch["queue_occupancy_pct"] = gen.integer(0, 3)
    if gen.boolean(0.5):
        meta.scratch["flag"] = gen.choice((True, False, 0, 1, "yes"))
    return Packet(headers=headers, payload_size=64), meta


class Probe:
    """A table whose actions record which entry fired."""

    def __init__(self, gen: Gen) -> None:
        self.gen = gen
        self.fired: list = []
        self.keys = gen.shuffled(KEYS)[: gen.integer(0, 3)]
        self.kinds = [gen.choice(KEYS[path]) for path in self.keys]
        self.table = Table(
            "probe", keys=self.keys, match_kinds=self.kinds,
            default_action=Action("default", lambda v, m, p: self.fired.append(None)),
        )
        self._hit = Action("hit", lambda v, m, p: self.fired.append(p["id"]))
        self._next_id = 0

    def add_entry(self) -> None:
        patterns = [
            arbitrary_pattern(self.gen, path, kind)
            for path, kind in zip(self.keys, self.kinds)
        ]
        self.table.add_entry(
            patterns, self._hit, params={"id": self._next_id},
            priority=self.gen.choice((0, 0, 1, 2)),  # ties are the common case
        )
        self._next_id += 1

    def check_one_packet(self, case: int) -> None:
        table = self.table
        packet, meta = arbitrary_packet(self.gen)
        expected = reference_winner(table, packet, meta)
        before = (table.lookups, table.default_hits, {id(e): e.hits for e in table.entries})
        self.fired.clear()
        table.apply(PacketView(packet), meta)
        context = f"case {case}: keys {self.keys} kinds {self.kinds} packet {packet!r}"
        assert self.fired == [expected.params["id"] if expected else None], context
        assert table.lookups == before[0] + 1, context
        assert table.default_hits == before[1] + (expected is None), context
        for entry in table.entries:
            assert entry.hits == before[2][id(entry)] + (entry is expected), context


def test_compiled_table_agrees_with_the_interpreter_on_random_tables():
    for case, gen in cases(300):
        probe = Probe(gen)
        for _ in range(gen.integer(0, 8)):
            probe.add_entry()
        for _ in range(6):
            probe.check_one_packet(case)


def test_an_edit_between_two_packets_is_seen_by_the_second():
    for case, gen in cases(200):
        probe = Probe(gen)
        for _ in range(gen.integer(1, 5)):
            probe.add_entry()
        for _ in range(8):
            probe.check_one_packet(case)  # compiles what is there now...
            if gen.boolean(0.3):
                probe.table.clear()  # ...which the next lookup must not reuse
            for _ in range(gen.integer(0, 2)):
                probe.add_entry()


def test_entries_stay_in_priority_then_insertion_order():
    table = Table("t", keys=["mmt.config_id"])
    for name, priority in (("a", 0), ("b", 2), ("c", 0), ("d", 2), ("e", 1)):
        table.add_entry((0,), Action(name, lambda v, m, p: None), priority=priority)
    assert [entry.action.name for entry in table.entries] == ["b", "d", "e", "a", "c"]


def test_clear_empties_the_table_and_frees_its_capacity():
    table = Table("t", keys=["mmt.config_id"], max_entries=1)
    fired = []
    table.add_entry((0,), Action("old", lambda v, m, p: fired.append("old")))
    packet = Packet(headers=[EthernetHeader(), MmtHeader()])
    table.apply(PacketView(packet), Metadata())
    table.clear()
    assert table.entries == []
    table.apply(PacketView(packet), Metadata())
    assert fired == ["old"] and table.default_hits == 1
    table.add_entry((0,), Action("new", lambda v, m, p: fired.append("new")))
    table.apply(PacketView(packet), Metadata())
    assert fired == ["old", "new"]


@pytest.fixture
def element():
    return ProgrammableElement(Simulator(seed=1), "el", mac="02:00:00:00:00:01", ip="10.0.0.50")


def test_replace_rules_serves_the_very_next_packet_from_the_new_map(element):
    """Including a rewrite to an *empty* rule list: nothing may be left
    behind for the next packet to hit."""
    to_recover = TransitionRule(
        from_config_id=0, to_mode="age-recover", buffer_addr="10.0.0.50", age_budget_ns=5000
    )
    to_check = TransitionRule(
        from_config_id=0, to_mode="deliver-check", buffer_addr="10.0.0.50",
        age_budget_ns=5000, deadline_offset_ns=1000, notify_addr="10.0.0.9",
    )
    program = ModeTransitionProgram(pilot_registry(), [to_recover])
    program.install(element)

    def config_after_pipeline() -> int:
        header = MmtHeader(experiment_id=42 << 8)
        packet = Packet(headers=[EthernetHeader(), Ipv4Header(dst="10.9.9.9"), header])
        element.pipeline.process(packet, Metadata(now_ns=0))
        return header.config_id

    assert config_after_pipeline() == 1
    program.replace_rules([to_check])
    assert config_after_pipeline() == 2
    program.replace_rules([])
    assert config_after_pipeline() == 0  # default action: left in mode 0
    program.replace_rules([to_recover])
    assert config_after_pipeline() == 1
