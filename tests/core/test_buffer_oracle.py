"""Oracle: every header a buffer stores decodes to the header it was.

A :class:`RetransmitBuffer` keeps ``MmtHeader.encode()`` of each header
it is handed, not a copy of the object. The reference is the copy it
used to keep, ``header.copy()`` taken at store time, which lives on
only here. Three runs cover the headers buffers see: the Fig. 4 pilot
under WAN loss (the U280 mirror, answering NAKs), concurrent flows
whose modes are rewritten in flight, and a buffer failover with no
live buffer left, where the sender degrades and the DTN 1 buffer dies.
"""

from dataclasses import fields

import pytest

from repro.core import MmtHeader, RetransmitBuffer
from repro.dataplane import PilotConfig, PilotTestbed
from repro.faults import ChaosConfig, run_chaos
from repro.netsim import Simulator
from repro.netsim.units import MILLISECOND


@pytest.fixture
def stored(monkeypatch) -> list[tuple[MmtHeader, MmtHeader]]:
    """``(header.copy() at store time, the entry decoded)`` per store."""
    pairs = []
    store = RetransmitBuffer.store

    def store_and_decode(self, experiment_id, seq, header, *args, **kwargs):
        reference, before = header.copy(), self.stats.stored
        store(self, experiment_id, seq, header, *args, **kwargs)
        if self.stats.stored > before:
            _charge, encoded, *_rest = next(reversed(self._store.values()))
            pairs.append((reference, MmtHeader.decode(encoded)))

    monkeypatch.setattr(RetransmitBuffer, "store", store_and_decode)
    return pairs


def pilot_with_wan_loss():
    config = PilotConfig(wan_delay_ns=10 * MILLISECOND, wan_loss_rate=0.01)
    pilot = PilotTestbed(Simulator(seed=31), config)
    pilot.send_stream(300, payload_size=8000, interval_ns=2_000)
    pilot.run()
    assert pilot.report().delivered == 300 and pilot.buffer.stats.hits > 0
    return pilot


RUNS = {
    "fig4-wan-loss": pilot_with_wan_loss,
    "mode-rewrite-churn": lambda: run_chaos(
        ChaosConfig(scenario="mode-rewrite-churn", messages=120)),
    "buffer-failover-degraded": lambda: run_chaos(ChaosConfig(
        scenario="buffer-failover", failover=False, messages=120, payload_size=4000)),
}


@pytest.mark.parametrize("name", RUNS)
def test_every_stored_header_decodes_field_for_field(name, stored):
    RUNS[name]()
    assert len(stored) >= 50, f"{name}: only {len(stored)} stores"  # 300, 146 and 54
    # Every field of the header's value; the validate-once cache is not one.
    names = [field.name for field in fields(MmtHeader) if field.compare]
    for reference, decoded in stored:
        want = [(field, getattr(reference, field)) for field in names]
        assert [(field, getattr(decoded, field)) for field in names] == want
