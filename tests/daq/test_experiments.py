"""The Table 1 catalog and its workload factories."""

import random

import pytest

from repro.daq import catalog, CMS_L1, DUNE, ECCE, MU2E, VERA_RUBIN
from repro.netsim.units import MILLISECOND, SECOND, gbps, tbps


def test_catalog_matches_table1_rates():
    """The five rows of Table 1, exactly."""
    expected = {
        "CMS L1 Trigger": tbps(63),
        "DUNE": tbps(120),
        "ECCE detector": tbps(100),
        "Mu2e": gbps(160),
        "Vera Rubin": gbps(400),
    }
    entries = {spec.name: spec.daq_rate_bps for spec in catalog()}
    assert entries == expected


def test_catalog_order_matches_paper():
    assert [s.name for s in catalog()] == [
        "CMS L1 Trigger", "DUNE", "ECCE detector", "Mu2e", "Vera Rubin",
    ]


def test_experiment_numbers_unique():
    numbers = [s.experiment_number for s in catalog()]
    assert len(numbers) == len(set(numbers))


@pytest.mark.parametrize("spec", catalog(), ids=lambda s: s.name)
def test_workload_offers_declared_rate_at_scale(spec):
    """Each generator's long-run offered load matches the Table 1 rate
    (scaled down so the check runs in milliseconds of virtual time)."""
    scale = 1e-4 if spec.daq_rate_bps > gbps(500) else 1e-2
    process = spec.workload(scale=scale)
    window = 4 * SECOND if spec.pattern in ("spill", "cadence") else 50 * MILLISECOND
    messages = list(process.generate(window, random.Random(3)))
    offered = sum(m.size_bytes for m in messages) * 8 * SECOND / window
    assert offered == pytest.approx(spec.daq_rate_bps * scale, rel=0.1)


def test_mu2e_is_spill_structured():
    process = MU2E.workload(scale=1e-2)
    messages = list(process.generate(3 * SECOND, random.Random(1)))
    kinds = {m.kind for m in messages}
    assert kinds == {"spill"}


def test_rubin_has_alert_component():
    process = VERA_RUBIN.workload(scale=1e-3)
    messages = list(process.generate(60 * SECOND, random.Random(1)))
    kinds = {m.kind for m in messages}
    assert "alert" in kinds
    assert "readout" in kinds


def test_scale_must_be_positive():
    with pytest.raises(ValueError):
        CMS_L1.workload(scale=0)
