"""Satellite 2: causal-completeness audit of every aged packet.

The lossy-WAN multiflow scenario (WAN delay 1 ms against a 0.5 ms age
budget) ages *every* delivered packet, and random loss tangles NAK and
retransmission chains through the timelines. For each ``aged`` packet
this audit replays its full trace and asserts the timeline is causally
complete: a birth event, spans at every path element, ordered
recovery chains, and nothing impossible (data-path events inside the
lost-to-recovery window, deliveries before the aging that preceded
them). This is the bugfix-grade check that found the instrumentation
gaps during development — it keeps them fixed.
"""

import pytest

from repro.dataplane import PilotConfig, PilotTestbed
from repro.netsim import Simulator
from repro.netsim.units import MILLISECOND

FLOWS = 4
MESSAGES = 96


@pytest.fixture(scope="module")
def aged_run():
    pilot = PilotTestbed(
        sim=Simulator(seed=7),
        config=PilotConfig(
            flows=FLOWS,
            trace=True,
            wan_loss_rate=0.05,
            wan_delay_ns=1 * MILLISECOND,
            age_budget_ns=MILLISECOND // 2,
        ),
    )
    pilot.send_split(MESSAGES, payload_size=4000, interval_ns=2000)
    report = pilot.run()
    return pilot, report


def aged_timelines(pilot):
    events = pilot.tracer.events()
    identities = sorted({e.identity for e in events if e.kind == "packet.aged"})
    return [(identity, pilot.tracer.timeline(*identity)) for identity in identities]


def test_scenario_ages_and_recovers(aged_run):
    _pilot, report = aged_run
    assert report.aged_packets == report.delivered == MESSAGES
    assert report.unrecovered == 0


def test_every_aged_packet_has_complete_timeline(aged_run):
    pilot, report = aged_run
    timelines = aged_timelines(pilot)
    assert len(timelines) == report.aged_packets

    for identity, timeline in timelines:
        kinds = [e.kind for e in timeline]
        # Causal order: time never runs backwards along a timeline.
        ts = [e.ts_ns for e in timeline]
        assert ts == sorted(ts), identity

        # Birth: the in-network transition that sequenced the packet.
        assert kinds[0] == "mode.transition", (identity, kinds)
        # The original copy was cached before leaving the U280.
        assert "buffer.store" in kinds, identity
        # The packet (original or retransmitted) left every path element.
        egress_elements = {
            e.element for e in timeline if e.kind == "element.egress"
        }
        assert {"alveo-u280", "tofino2", "alveo-u55c"} <= egress_elements, identity

        # Exactly one delivery, aged no later than it was delivered.
        assert kinds.count("packet.deliver") == 1, identity
        deliver = next(e for e in timeline if e.kind == "packet.deliver")
        first_aged = next(e for e in timeline if e.kind == "age.aged")
        assert first_aged.ts_ns <= deliver.ts_ns, identity
        assert "packet.aged" in kinds, identity

        # Nothing after the delivery except its own aged stamp.
        after = [e.kind for e in timeline if e.ts_ns > deliver.ts_ns]
        assert not after, (identity, after)


def test_recovery_chains_are_causally_ordered(aged_run):
    pilot, report = aged_run
    assert report.retransmissions > 0  # scenario must exercise recovery
    for identity, timeline in aged_timelines(pilot):
        kinds = [e.kind for e in timeline]
        if "link.drop" not in kinds:
            continue
        # Every retransmission arrival was requested and served first.
        for i, kind in enumerate(kinds):
            if kind == "retx.recv":
                assert "nak.send" in kinds[:i], identity
                assert "retx.send" in kinds[:i], identity
        # A wire loss is causally dead: no data-path span for this
        # packet between the drop and the retransmission that revives
        # it (an orphan span there = an instrumentation bug).
        drop_at = next(e.ts_ns for e in timeline if e.kind == "link.drop")
        revive = next(
            (e.ts_ns for e in timeline if e.kind == "retx.send"), None
        )
        if revive is not None:
            ghosts = [
                e.kind
                for e in timeline
                if drop_at < e.ts_ns < revive
                and e.kind.startswith(("element.", "packet."))
            ]
            assert not ghosts, (identity, ghosts)


def test_aged_identities_are_all_pinned_by_flight_recorder(aged_run):
    pilot, _report = aged_run
    aged = {e.identity for e in pilot.tracer.events() if e.kind == "packet.aged"}
    assert aged <= pilot.tracer.anomalous_identities()
