"""Placement planning and end-to-end installation."""

import pytest

from repro.controlplane import (
    Capability,
    FlowIntent,
    PlacementError,
    ResourceDescriptor,
    ResourceMap,
    install_plan,
    plan_flow,
)
from repro.core import Feature, MmtStack, ReceiverConfig, extended_registry, make_experiment_id
from repro.dataplane import ProgrammableElement
from repro.netsim import Topology, units

EXP = 31
EXP_ID = make_experiment_id(EXP)

ALL_CAPS = frozenset(
    {
        Capability.MODE_TRANSITION,
        Capability.RETRANSMIT_BUFFER,
        Capability.AGE_UPDATE,
        Capability.DUPLICATION,
    }
)

HEADER_ONLY = frozenset({Capability.MODE_TRANSITION, Capability.AGE_UPDATE})


def make_map():
    m = ResourceMap()
    m.upsert(ResourceDescriptor(
        node="e1", domain="site", address="10.0.1.1",
        capabilities=ALL_CAPS, buffer_bytes=1 << 30))
    m.upsert(ResourceDescriptor(
        node="e2", domain="wan", address="10.0.2.1", capabilities=HEADER_ONLY))
    m.upsert(ResourceDescriptor(
        node="e3", domain="edge", address="10.0.3.1",
        capabilities=ALL_CAPS, buffer_bytes=1 << 28))
    return m


PATH = ["src", "e1", "e2", "e3", "dst"]


def reliable_intent(**over):
    fields = dict(
        experiment_id=EXP_ID,
        reliable=True,
        age_budget_ns=units.seconds(1),
        deadline_offset_ns=units.milliseconds(50),
        notify_addr="10.0.0.2",
    )
    fields.update(over)
    return FlowIntent(**fields)



def plan_for(plan, node):
    return next(n for n in plan.nodes if n.node == node)

class TestPlanning:
    def test_entry_at_first_transition_capable(self):
        plan = plan_flow(make_map(), PATH, reliable_intent(), extended_registry())
        e1 = plan_for(plan, "e1")
        assert e1.transition is not None
        assert e1.transition.from_config_id == 0
        assert plan.entry_mode.has(Feature.SEQUENCED)
        assert plan.entry_mode.has(Feature.RETRANSMISSION)
        assert plan.entry_mode.has(Feature.AGE_TRACKING)

    def test_exit_deadline_at_last_transition_capable(self):
        plan = plan_flow(make_map(), PATH, reliable_intent(), extended_registry())
        e3 = plan_for(plan, "e3")
        assert e3.transition is not None
        assert e3.transition.to_mode == plan.exit_mode.name
        assert e3.transition.deadline_offset_ns == units.milliseconds(50)
        assert plan.exit_mode.has(Feature.TIMELINESS)

    def test_buffers_at_every_capable_element_with_chained_fallback(self):
        plan = plan_flow(make_map(), PATH, reliable_intent(), extended_registry())
        buffers = [n for n in plan.nodes if n.host_buffer_bytes]
        assert [b.node for b in buffers] == ["e1", "e3"]
        assert buffers[0].nak_fallback_addr is None
        assert buffers[1].nak_fallback_addr == "10.0.1.1"

    def test_mid_path_element_refreshes_nearest_buffer(self):
        plan = plan_flow(make_map(), PATH, reliable_intent(), extended_registry())
        e2 = plan_for(plan, "e2")
        assert e2.nearest_buffer_addr == "10.0.1.1"
        assert e2.age_update

    def test_duplication_at_last_capable(self):
        intent = reliable_intent(duplicate_to=("10.9.9.9",))
        plan = plan_flow(make_map(), PATH, intent, extended_registry())
        assert plan_for(plan, "e3").duplication == {1: ["10.9.9.9"]}
        assert plan_for(plan, "e1").duplication is None
        assert plan.entry_mode.has(Feature.DUPLICATION)

    def test_existing_mode_reused(self):
        registry = extended_registry()
        before = len(registry)
        intent = FlowIntent(
            experiment_id=EXP_ID, reliable=True, age_budget_ns=units.seconds(1)
        )
        plan = plan_flow(make_map(), PATH, intent, registry)
        # SEQ|RETX|AGE is exactly the pilot's "age-recover" mode.
        assert plan.entry_mode.name == "age-recover"
        assert len(registry) == before

    def test_synthesized_mode_for_novel_combo(self):
        registry = extended_registry()
        intent = reliable_intent(duplicate_to=("10.9.9.9",))
        plan = plan_flow(make_map(), PATH, intent, registry)
        assert plan.exit_mode.config_id >= 8
        assert plan.exit_mode.has(Feature.DUPLICATION)
        assert plan.exit_mode.has(Feature.TIMELINESS)

    def test_unsatisfiable_intents_rejected(self):
        empty = ResourceMap()
        with pytest.raises(PlacementError):
            plan_flow(empty, PATH, reliable_intent(), extended_registry())
        no_buffers = ResourceMap()
        no_buffers.upsert(ResourceDescriptor(
            node="e2", domain="wan", address="10.0.2.1", capabilities=HEADER_ONLY))
        with pytest.raises(PlacementError):
            plan_flow(no_buffers, ["src", "e2", "dst"], reliable_intent(),
                      extended_registry())
        no_dup = ResourceMap()
        no_dup.upsert(ResourceDescriptor(
            node="e1", domain="site", address="10.0.1.1",
            capabilities=frozenset({Capability.MODE_TRANSITION,
                                    Capability.RETRANSMIT_BUFFER}),
            buffer_bytes=1 << 20))
        with pytest.raises(PlacementError):
            plan_flow(no_dup, ["src", "e1", "dst"],
                      reliable_intent(duplicate_to=("1.1.1.1",)),
                      extended_registry())
        with pytest.raises(PlacementError):
            plan_flow(make_map(), PATH, reliable_intent(notify_addr=None),
                      extended_registry())


class TestInstallEndToEnd:
    def build_network(self, sim):
        topo = Topology(sim)
        src = topo.add_host("src", ip="10.0.0.2")
        dst = topo.add_host("dst", ip="10.0.9.2")
        elements = {}
        for i, addr in ((1, "10.0.1.1"), (2, "10.0.2.1"), (3, "10.0.3.1")):
            element = ProgrammableElement(sim, f"e{i}", mac=topo.allocate_mac(), ip=addr)
            topo.add(element)
            elements[f"e{i}"] = element
        chain = [src, elements["e1"], elements["e2"], elements["e3"], dst]
        for i, (a, b) in enumerate(zip(chain, chain[1:])):
            loss = 0.03 if i == 3 else 0.0  # lossy last hop
            topo.connect(a, b, units.gbps(10), units.milliseconds(2), loss_rate=loss)
        topo.install_routes()
        return topo, src, dst, elements

    def test_planned_flow_recovers_from_nearest_buffer(self, sim):
        topo, src, dst, elements = self.build_network(sim)
        registry = extended_registry()
        intent = FlowIntent(
            experiment_id=EXP_ID, reliable=True, age_budget_ns=units.seconds(1)
        )
        plan = plan_flow(make_map(), PATH, intent, registry)
        install_plan(plan, elements, registry)

        src_stack = MmtStack(src, registry)
        dst_stack = MmtStack(dst, registry)
        got = []
        receiver = dst_stack.bind_receiver(
            EXP,
            on_message=lambda p, h: got.append(h),
            config=ReceiverConfig(initial_rtt_ns=units.milliseconds(20)),
        )
        sender = src_stack.create_sender(
            experiment_id=EXP_ID, mode="identify", dst_ip=dst.ip
        )
        for _ in range(400):
            sender.send(2000)
        sender.finish()
        sim.run()
        receiver.request_missing(EXP_ID, 400)
        sim.run()
        seqs = {h.seq for h in got}
        assert seqs == set(range(400))
        # Recoveries came from e3 (nearest to the lossy hop), some via
        # fallback to e1, never from the source (it keeps no buffer).
        assert elements["e3"].stats.naks_served >= 1
        assert receiver.stats.unrecovered == 0
        # Headers carried the nearest-buffer refresh from e2.
        assert all(h.buffer_addr in ("10.0.1.1", "10.0.3.1") for h in got
                   if h.buffer_addr is not None)

    def test_install_requires_all_elements(self, sim):
        registry = extended_registry()
        plan = plan_flow(make_map(), PATH, reliable_intent(), registry)
        with pytest.raises(PlacementError):
            install_plan(plan, {}, registry)
