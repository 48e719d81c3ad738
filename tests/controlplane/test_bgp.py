"""Inter-domain map distribution: flooding, loops, timing."""

import pytest

from repro.controlplane import (
    Capability,
    MapSpeaker,
    ResourceDescriptor,
    converge,
)
from repro.netsim import units


def descriptor(domain, node, version=1):
    return ResourceDescriptor(
        node=node,
        domain=domain,
        address="10.0.0.1",
        capabilities=frozenset({Capability.MODE_TRANSITION}),
        version=version,
    )


def triangle(sim):
    """Three domains fully meshed with distinct delays."""
    a = MapSpeaker(sim, "esnet")
    b = MapSpeaker(sim, "geant")
    c = MapSpeaker(sim, "amlight")
    a.peer_with(b, units.milliseconds(10))
    b.peer_with(c, units.milliseconds(20))
    a.peer_with(c, units.milliseconds(50))
    return a, b, c


def test_advertisement_reaches_all_domains(sim):
    a, b, c = triangle(sim)
    a.advertise(descriptor("esnet", "tofino1"))
    sim.run()
    assert converge([a, b, c])
    assert b.map.get("tofino1") is not None
    assert c.map.get("tofino1") is not None


def test_propagation_takes_shortest_delay(sim):
    a, b, c = triangle(sim)
    arrival = {}
    c.on_change = lambda d: arrival.setdefault("t", sim.now)
    a.advertise(descriptor("esnet", "tofino1"))
    sim.run()
    # a->b->c is 30 ms; a->c direct is 50 ms. First arrival wins at 30.
    assert arrival["t"] == units.milliseconds(30)


def test_loop_prevention_terminates_flooding(sim):
    a, b, c = triangle(sim)
    a.advertise(descriptor("esnet", "tofino1"))
    sim.run()
    total_updates = a.updates_sent + b.updates_sent + c.updates_sent
    assert total_updates <= 10  # bounded, not an update storm
    assert a.loops_suppressed + b.loops_suppressed + c.loops_suppressed >= 1


def test_refresh_supersedes(sim):
    a, b, _c = triangle(sim)
    a.advertise(descriptor("esnet", "tofino1", version=1))
    sim.run()
    a.advertise(descriptor("esnet", "tofino1", version=2))
    sim.run()
    assert b.map.get("tofino1").version == 2


def test_cannot_originate_foreign_resource(sim):
    a, _b, _c = triangle(sim)
    with pytest.raises(ValueError):
        a.advertise(descriptor("geant", "router9"))


def test_self_peering_rejected(sim):
    a = MapSpeaker(sim, "esnet")
    other = MapSpeaker(sim, "esnet")
    with pytest.raises(ValueError):
        a.peer_with(other, 1000)


def test_multi_origin_convergence(sim):
    a, b, c = triangle(sim)
    a.advertise(descriptor("esnet", "e1"))
    b.advertise(descriptor("geant", "g1"))
    c.advertise(descriptor("amlight", "a1"))
    sim.run()
    assert converge([a, b, c])
    assert len(a.map) == 3
