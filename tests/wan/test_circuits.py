"""Circuit reservations and admission control."""

import pytest

from repro.netsim import Topology, units
from repro.wan import CircuitError, CircuitManager


@pytest.fixture
def managed(sim):
    topo = Topology(sim)
    a = topo.add_host("a")
    b = topo.add_host("b")
    link = topo.connect(a, b, units.gbps(100), 1000)
    manager = CircuitManager(headroom=0.05)
    manager.manage(link)
    return manager, link


def test_reserve_within_capacity(managed):
    manager, link = managed
    legs = manager.reserve([link.name], units.gbps(50), 0, 1000, owner="dune")
    assert len(legs) == 1
    assert manager.utilization(link.name, 500) == pytest.approx(0.5)


def test_headroom_enforced(managed):
    manager, link = managed
    with pytest.raises(CircuitError):
        manager.reserve([link.name], units.gbps(96), 0, 1000, owner="greedy")


def test_overlapping_windows_sum(managed):
    manager, link = managed
    manager.reserve([link.name], units.gbps(60), 0, 1000, owner="one")
    with pytest.raises(CircuitError):
        manager.reserve([link.name], units.gbps(40), 500, 1500, owner="two")
    # Disjoint window is fine.
    manager.reserve([link.name], units.gbps(40), 1000, 2000, owner="two")


def test_reservable_reporting(managed):
    manager, link = managed
    manager.reserve([link.name], units.gbps(30), 0, 1000, owner="one")
    left = manager.reservable_bps(link.name, 0, 1000)
    assert left == pytest.approx(units.gbps(65), rel=0.01)


def test_atomic_multi_leg(sim):
    topo = Topology(sim)
    a, b, c = topo.add_host("a"), topo.add_host("b"), topo.add_host("c")
    l1 = topo.connect(a, b, units.gbps(100), 10)
    l2 = topo.connect(b, c, units.gbps(10), 10)
    manager = CircuitManager()
    manager.manage(l1)
    manager.manage(l2)
    # The narrow second leg must veto the whole path reservation.
    with pytest.raises(CircuitError):
        manager.reserve([l1.name, l2.name], units.gbps(50), 0, 100, owner="x")
    assert manager.utilization(l1.name, 50) == 0.0  # nothing partially booked


def test_validation(managed):
    manager, link = managed
    with pytest.raises(CircuitError):
        manager.reserve([link.name], 0, 0, 10, owner="x")
    with pytest.raises(CircuitError):
        manager.reserve([link.name], 1, 10, 10, owner="x")
    with pytest.raises(CircuitError):
        manager.reservable_bps("ghost", 0, 1)
    with pytest.raises(CircuitError):
        manager.manage(link)
