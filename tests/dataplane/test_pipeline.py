"""The P4 pipeline model: matching, actions, registers, constraints."""

import pytest

from repro.core import Feature, MmtHeader
from repro.dataplane import (
    Action,
    DROP,
    MatchKind,
    Metadata,
    NOP,
    PacketView,
    Pipeline,
    PipelineError,
    RegisterArray,
    Table,
)
from repro.netsim import EthernetHeader, Ipv4Header, Packet


def run_alone(table, packet, meta):
    """One pass of ``packet`` through a pipeline holding only ``table``."""
    pipeline = Pipeline("alone")
    pipeline.add_table(table)
    pipeline.process(packet, meta)


def mmt_packet(**kwargs):
    return Packet(
        eth=EthernetHeader(), ip=Ipv4Header(dst="10.0.0.2"), mmt=MmtHeader(**kwargs),
        payload_size=100,
    )


class TestRegisterArray:
    def test_read_write(self):
        reg = RegisterArray("r", 4, width_bits=8)
        reg.write(2, 300)  # wraps at 8 bits
        assert reg.read(2) == 300 & 0xFF

    def test_read_add_returns_previous(self):
        reg = RegisterArray("r", 1)
        assert reg.read_add(0, 5) == 0
        assert reg.read_add(0, 5) == 5
        assert reg.read(0) == 10

    def test_bounds_checked(self):
        reg = RegisterArray("r", 2)
        with pytest.raises(PipelineError):
            reg.read(2)
        with pytest.raises(PipelineError):
            reg.write(-1, 0)

    def test_value_type_checked(self):
        reg = RegisterArray("r", 1)
        with pytest.raises(PipelineError):
            reg.write(0, 1.5)

    def test_invalid_shape(self):
        with pytest.raises(PipelineError):
            RegisterArray("r", 0)
        with pytest.raises(PipelineError):
            RegisterArray("r", 1, width_bits=65)


class TestPacketView:
    def test_get_set_header_fields(self):
        view = PacketView(mmt_packet(config_id=3))
        assert view.get("mmt.config_id") == 3
        view.set("ip.dscp", 46)
        assert view.get("ip.dscp") == 46

    def test_payload_not_reachable(self):
        view = PacketView(mmt_packet())
        for path in ("mmt.payload", "ip.payload_size", "eth.headers", "mmt.meta"):
            with pytest.raises(PipelineError):
                view.get(path)

    def test_size_bearing_fields_not_writable(self):
        """A feature-word write would change the header's wire size behind
        the packet's ``size_bytes``; only a mode transition may do it."""
        packet = mmt_packet(features=Feature.NONE)
        view = PacketView(packet)
        with pytest.raises(PipelineError, match="mmt.features"):
            view.set("mmt.features", int(Feature.SEQUENCED))
        assert packet.mmt.features == Feature.NONE and packet.size_bytes == 18 + 20 + 8 + 100
        assert view.get("mmt.features") == Feature.NONE  # reading it is fine

    def test_floats_rejected(self):
        view = PacketView(mmt_packet())
        with pytest.raises(PipelineError):
            view.set("ip.ttl", 1.5)

    def test_bytes_rejected(self):
        view = PacketView(mmt_packet())
        with pytest.raises(PipelineError):
            view.set("eth.src", b"\x00\x01")

    def test_unknown_header_and_field(self):
        view = PacketView(mmt_packet())
        with pytest.raises(PipelineError):
            view.get("vlan.id")
        with pytest.raises(PipelineError):
            view.get("ip.nonexistent")
        with pytest.raises(PipelineError):
            view.get("noheader")

    def test_missing_header(self):
        view = PacketView(Packet(eth=EthernetHeader()))
        assert not view.has_header("ip")
        with pytest.raises(PipelineError):
            view.get("ip.dst")

    def test_mmt_accessor(self):
        view = PacketView(mmt_packet(config_id=7))
        assert view.mmt().config_id == 7
        with pytest.raises(PipelineError):
            PacketView(Packet()).mmt()

    def test_sim_stamp_int_only(self):
        view = PacketView(mmt_packet())
        view.sim_stamp("t", 99)
        assert view.sim_read("t") == 99
        with pytest.raises(PipelineError):
            view.sim_stamp("t", 1.5)


class TestTable:
    def test_exact_match_and_default(self):
        hits = []
        table = Table(
            "t",
            keys=["mmt.config_id"],
            default_action=Action("dflt", lambda v, m, p: hits.append("default")),
        )
        table.add_entry((1,), Action("hit", lambda v, m, p: hits.append("hit")))
        run_alone(table, mmt_packet(config_id=1), Metadata())
        run_alone(table, mmt_packet(config_id=2), Metadata())
        assert hits == ["hit", "default"]
        assert table.entries[0].hits == 1
        assert table.default_hits == 1

    def test_wildcard_pattern(self):
        hits = []
        table = Table("t", keys=["meta.ingress_port", "mmt.config_id"])
        table.add_entry((None, 0), Action("a", lambda v, m, p: hits.append(m.ingress_port)))
        run_alone(table, mmt_packet(), Metadata(ingress_port="p1"))
        run_alone(table, mmt_packet(), Metadata(ingress_port="p2"))
        assert hits == ["p1", "p2"]

    def test_priority_ordering(self):
        hits = []
        table = Table("t", keys=["mmt.config_id"])
        table.add_entry((0,), Action("low", lambda v, m, p: hits.append("low")), priority=0)
        table.add_entry((0,), Action("high", lambda v, m, p: hits.append("high")), priority=5)
        run_alone(table, mmt_packet(), Metadata())
        assert hits == ["high"]

    def test_ternary_match(self):
        hits = []
        table = Table("t", keys=["mmt.experiment_id"], match_kinds=[MatchKind.TERNARY])
        # Match any experiment whose low byte (slice) is 3.
        table.add_entry(((3, 0xFF),), Action("a", lambda v, m, p: hits.append(1)))
        run_alone(table, mmt_packet(experiment_id=0x1203), Metadata())
        run_alone(table, mmt_packet(experiment_id=0x1204), Metadata())
        assert len(hits) == 1

    def test_range_match(self):
        hits = []
        table = Table("t", keys=["meta.queue_occupancy_pct"], match_kinds=[MatchKind.RANGE])
        table.add_entry(((60, 100),), Action("a", lambda v, m, p: hits.append(1)))
        meta = Metadata()
        meta.queue_occupancy_pct = 75
        run_alone(table, mmt_packet(), meta)
        meta.queue_occupancy_pct = 10
        run_alone(table, mmt_packet(), meta)
        assert len(hits) == 1

    def test_missing_header_uses_default(self):
        hits = []
        table = Table(
            "t",
            keys=["mmt.config_id"],
            default_action=Action("d", lambda v, m, p: hits.append("d")),
        )
        table.add_entry((0,), NOP)
        run_alone(table, Packet(eth=EthernetHeader()), Metadata())
        assert hits == ["d"]

    def test_entry_shape_validated(self):
        table = Table("t", keys=["mmt.config_id"])
        with pytest.raises(PipelineError):
            table.add_entry((1, 2), NOP)

    def test_capacity_enforced(self):
        table = Table("t", keys=["mmt.config_id"], max_entries=1)
        table.add_entry((0,), NOP)
        with pytest.raises(PipelineError):
            table.add_entry((1,), NOP)

    def test_bad_match_kind(self):
        with pytest.raises(PipelineError):
            Table("t", keys=["x.y"], match_kinds=["fuzzy"])


class TestPipeline:
    def test_tables_apply_in_order(self):
        pipeline = Pipeline("p")
        order = []
        for name in ("one", "two"):
            pipeline.add_table(
                Table(name, keys=[], default_action=Action(name, lambda v, m, p, n=name: order.append(n)))
            )
        pipeline.process(mmt_packet(), Metadata())
        assert order == ["one", "two"]

    def test_drop_short_circuits(self):
        pipeline = Pipeline("p")
        pipeline.add_table(Table("dropper", keys=[], default_action=DROP))
        reached = []
        pipeline.add_table(
            Table("after", keys=[], default_action=Action("a", lambda v, m, p: reached.append(1)))
        )
        meta = pipeline.process(mmt_packet(), Metadata())
        assert meta.drop
        assert reached == []

    def test_stage_budget_enforced(self):
        pipeline = Pipeline("p", stages=1)
        pipeline.add_table(Table("one", keys=[]))
        with pytest.raises(PipelineError):
            pipeline.add_table(Table("two", keys=[]))

    def test_register_namespace(self):
        pipeline = Pipeline("p")
        pipeline.add_register("seq", 16)
        assert pipeline.registers["seq"].size == 16
        with pytest.raises(PipelineError):
            pipeline.add_register("seq", 8)

    def test_metadata_emit_and_clone(self):
        meta = Metadata()
        meta.clone_to("10.0.0.9")
        header = MmtHeader()
        meta.emit("10.0.0.1", header, b"x")
        assert meta.clones == ["10.0.0.9"]
        assert meta.generated == [("10.0.0.1", header, b"x")]
