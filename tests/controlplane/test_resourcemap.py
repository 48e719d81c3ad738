"""Resource descriptors and map merge semantics."""

import pytest

from repro.controlplane import Capability, ResourceDescriptor, ResourceMap


def descriptor(node="tofino1", domain="esnet", version=1, **over):
    fields = dict(
        node=node,
        domain=domain,
        address=f"10.9.0.{version}",
        capabilities=frozenset(
            {Capability.MODE_TRANSITION, Capability.AGE_UPDATE}
        ),
        version=version,
    )
    fields.update(over)
    return ResourceDescriptor(**fields)


class TestDescriptor:
    def test_validation(self):
        with pytest.raises(ValueError):
            descriptor(node="")
        with pytest.raises(ValueError):
            descriptor(version=0)
        with pytest.raises(ValueError):
            descriptor(
                capabilities=frozenset({Capability.RETRANSMIT_BUFFER}),
                buffer_bytes=0,
            )

    def test_supports(self):
        d = descriptor()
        assert d.supports(Capability.MODE_TRANSITION)
        assert not d.supports(Capability.DUPLICATION)


class TestMap:
    def test_upsert_newest_wins(self):
        m = ResourceMap()
        assert m.upsert(descriptor(version=2))
        assert not m.upsert(descriptor(version=1))  # stale
        assert not m.upsert(descriptor(version=2))  # same
        assert m.upsert(descriptor(version=3))
        assert m.get("tofino1").version == 3
