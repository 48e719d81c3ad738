"""Interleaved multi-flow schedule properties.

Two layers of the same claim — concurrent flows are isolated:

- **buffer isolation** (pure, 200 cases): flows sharing one
  retransmission buffer with fully overlapping sequence spaces never
  serve each other's bytes;
- **end-to-end isolation** (simulated, 200 cases): random interleaved
  schedules over a lossy link deliver every flow completely, in
  per-flow sequence order, with recovery state never crossing flows.
"""

from repro.core import (
    MmtStack,
    MsgType,
    NakPayload,
    ReceiverConfig,
    RetransmitBuffer,
    make_experiment_id,
)
from repro.netsim import Simulator, units
from tests.conftest import TwoHostRig

from .strategies import cases, multiflow_schedule

EXP = 9
EXP_ID = make_experiment_id(EXP)


def test_flows_never_share_retransmit_state():
    """One shared buffer, N flows, identical seq spaces: every fetch
    returns the packet its own flow stored, and a NAK served for one
    flow never yields — or evicts visibility of — another's bytes."""
    for index, gen in cases():
        schedule = multiflow_schedule(gen)
        buffer = RetransmitBuffer(1 << 30, address="10.0.0.1")
        for entry in schedule:
            marker = f"f{entry.flow_id}s{entry.seq}".encode()
            payload = marker.ljust(entry.payload_size, b".")
            buffer.store(
                EXP_ID, entry.seq, None, len(payload), payload, flow_id=entry.flow_id
            )

        context = f"case {index} (seed {gen.seed})"
        flows = sorted({e.flow_id for e in schedule})
        per_flow = {
            f: sorted(e.seq for e in schedule if e.flow_id == f) for f in flows
        }
        for flow_id, seqs in per_flow.items():
            for seq in seqs:
                fetched = buffer.fetch(EXP_ID, seq, flow_id=flow_id)
                assert fetched is not None, context
                marker = f"f{flow_id}s{seq}".encode()
                assert fetched.payload.rstrip(b".") == marker, context
            # A NAK covering this flow's whole range is fully served by
            # its own packets; other flows' entries are invisible to it.
            nak = NakPayload.from_sequence_numbers(seqs)
            recovered, unmet = buffer.serve_nak(EXP_ID, nak, flow_id=flow_id)
            assert not unmet, context
            assert sorted(p.payload.rstrip(b".").decode() for p in recovered) == sorted(
                f"f{flow_id}s{s}" for s in seqs
            ), context
            # Seqs another flow used but this one never emitted miss.
            foreign = {s for f, ss in per_flow.items() if f != flow_id for s in ss}
            for seq in sorted(foreign - set(seqs)):
                assert buffer.fetch(EXP_ID, seq, flow_id=flow_id) is None, context

        residency = buffer.bytes_by_flow()
        assert set(residency) == {(EXP_ID, f) for f in flows}, context
        for flow_id in flows:
            expected = sum(
                e.payload_size for e in schedule if e.flow_id == flow_id
            )
            assert residency[(EXP_ID, flow_id)] == expected, context


def test_interleaved_flows_deliver_completely_and_in_order():
    """Random interleaved multi-flow schedules over a lossy link: every
    flow delivers its full stream in monotonic per-flow seq order, and
    per-flow receiver state shows no cross-flow bleed."""
    for index, gen in cases():
        sim = Simulator(seed=gen.seed & 0x7FFFFFFF)
        loss = gen.choice([0.0, 0.05, 0.15])
        rig = TwoHostRig(
            sim, middle_delay_ns=units.microseconds(200), loss_rate=loss
        )
        schedule = multiflow_schedule(gen, max_flows=3, max_messages=8)
        flows = sorted({e.flow_id for e in schedule})

        stack_a = MmtStack(rig.a)
        stack_b = MmtStack(rig.b)
        stack_a.attach_buffer(50_000_000)
        delivered: dict[int, list[tuple[int, bool]]] = {f: [] for f in flows}
        receiver = stack_b.bind_receiver(
            EXP,
            on_message=lambda p, h: delivered[h.flow_id].append(
                (h.seq, h.msg_type == MsgType.RETX_DATA)
            ),
            config=ReceiverConfig(initial_rtt_ns=units.milliseconds(1)),
        )
        senders = {
            f: stack_a.create_sender(
                experiment_id=EXP_ID,
                mode="age-recover",
                dst_ip=rig.b.ip,
                age_budget_ns=units.seconds(1),
                buffer_local=True,
                flow_id=f,
            )
            for f in flows
        }
        gap_ns = units.microseconds(5)
        for step, entry in enumerate(schedule):
            sim.schedule(
                step * gap_ns, senders[entry.flow_id].send, entry.payload_size
            )
        sim.schedule(
            len(schedule) * gap_ns,
            lambda: [sender.finish() for sender in senders.values()],
        )
        sim.run()
        counts = {f: sum(1 for e in schedule if e.flow_id == f) for f in flows}
        for f in flows:
            receiver.request_missing(EXP_ID, counts[f], flow_id=f)
        sim.run()

        context = f"case {index} (seed {gen.seed}, loss {loss})"
        for f in flows:
            seqs = [seq for seq, _retx in delivered[f]]
            # Complete, duplicate-free delivery per flow, always.
            assert sorted(seqs) == list(range(counts[f])), context
            # Monotonicity: the path is FIFO and senders emit in order,
            # so *original* transmissions arrive in seq order per flow;
            # only recovered packets may fill in late.
            originals = [seq for seq, retx in delivered[f] if not retx]
            assert originals == sorted(originals), context
            if loss == 0.0:
                assert seqs == list(range(counts[f])), context
            assert receiver.requester.flow(EXP_ID, f).unrecovered == 0, context
        summary = receiver.flow_summary()
        for f in flows:
            row = summary[(EXP_ID, f)]
            assert row["delivered"] == counts[f], context
            assert row["outstanding"] == 0, context
        if loss == 0.0:
            # No loss: recovery machinery for every flow must stay idle.
            assert all(
                summary[(EXP_ID, f)]["retransmissions"] == 0 for f in flows
            ), context
