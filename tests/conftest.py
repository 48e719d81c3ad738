"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.netsim import Node, Simulator, Topology, units

from .conservation import audit, breaches


@pytest.fixture(autouse=True)
def conservation_audit():
    """Every link and retransmission buffer a test builds must balance
    at teardown (``tests/conservation.py``)."""
    with audit() as built:
        yield
    found = breaches(built)
    assert not found, "conservation breached:\n" + "\n".join(found)


@pytest.fixture
def sim() -> Simulator:
    return Simulator(seed=1234)


class SinkNode(Node):
    """Absorbs every packet; records ``(time, packet)`` for inspection."""

    def __init__(self, sim: Simulator, name: str) -> None:
        super().__init__(sim, name)
        self.received = []
        self.rx_packets = 0

    def receive(self, packet, port) -> None:
        self.rx_packets += 1
        self.received.append((self.sim.now, packet))


class TwoHostRig:
    """host_a --- router --- host_b with configurable middle link."""

    def __init__(
        self,
        sim: Simulator,
        rate_bps: int = units.gbps(10),
        middle_delay_ns: int = units.microseconds(100),
        loss_rate: float = 0.0,
        mtu_bytes: int = 9000,
    ) -> None:
        self.sim = sim
        self.topology = Topology(sim)
        self.a = self.topology.add_host("a", ip="10.0.1.2")
        self.b = self.topology.add_host("b", ip="10.0.2.2")
        self.router = self.topology.add_router("r")
        self.link_a = self.topology.connect(
            self.a, self.router, rate_bps, units.microseconds(5), mtu_bytes
        )
        self.link_b = self.topology.connect(
            self.router, self.b, rate_bps, middle_delay_ns, mtu_bytes, loss_rate=loss_rate
        )
        self.topology.install_routes()


@pytest.fixture
def rig(sim: Simulator) -> TwoHostRig:
    return TwoHostRig(sim)


def instrument(registry, kind: str, name: str, **labels):
    """The registered ``kind`` instrument ``name{labels}``, or None — a
    lookup that, unlike the registry's factories, never creates one."""
    wanted = {key: str(value) for key, value in labels.items()}
    for metric in registry.collect():
        if (metric.kind, metric.name, metric.labels) == (kind, name, wanted):
            return metric
    return None
