"""Pins of what the end-of-run scrape and the on-clock sampler record.

Four snapshot runs — a lossy single-flow pilot, a multi-flow directory
pilot with a failover buffer, an 8-node × 16-flow farm, and the chaos
``buffer-failover`` scenario — and two sampled runs. Each snapshot
digest covers the records the run wrote before the metric catalogue
declared every row once: rows it declares for components another
caller already observed (the sampler's gauges, chaos's fault-path
counters) are left out by name, so the pin says every older record kept
its kind, labels and value.
"""

import hashlib
import json

import pytest

from repro.dataplane import PilotConfig, PilotTestbed
from repro.faults import ChaosConfig, run_chaos
from repro.fleet import FarmConfig, ReceiverFarm
from repro.netsim import Simulator
from repro.netsim.units import MILLISECOND
from repro.obs import series_digest

NEAREST = {"nearest_buffer_failovers", "nearest_buffer_stale_stamps"}
DIRECTORY = {"buffer_directory_alive", "buffer_directory_marks_down", "buffer_directory_marks_up"}

#: run → names its snapshot gained from the catalogue (filtered out).
ADDED = {
    "lossy_pilot": NEAREST | {"retx_buffer_entries"},
    "failover_pilot": NEAREST | DIRECTORY | {"retx_buffer_entries"},
    "farm": NEAREST | {"retx_buffer_entries", "fleet_fill_skew"},
    "chaos_buffer_failover": {"retx_buffer_entries"},
}

SNAPSHOT_DIGESTS = {
    "lossy_pilot": "0f9985ca6dd2de9c0384fed485317a48830f3ed362bc4f70dc703aaad3727978",
    "failover_pilot": "334575a9d51954673b1c6247c1a7ce831515071d6b2e9f51cab5cf751854d63d",
    "farm": "bf4d78621d5bf6a0cf45c7a6905bfa1361b155ebfe8ac98695a395c6f705721f",
    "chaos_buffer_failover": "ffb3baccf66ae76d69ed41c715cfa6eb8feb5414dfae608ffa827268b7fcf3b4",
}

SERIES_DIGESTS = {
    "pilot": "5f92c0487b3fac008a9463074b12c4437dcfe7d6791c58c59c69e82d93435ded",
    "farm": "a1a4e44ff1ef7da286d116ebc0eeb01a2cc9c9fa262df2da35c06376bfb10e67",
}


def lossy_pilot():
    pilot = PilotTestbed(Simulator(seed=42), PilotConfig(
        wan_delay_ns=10 * MILLISECOND, wan_loss_rate=0.01, telemetry=True,
    ))
    pilot.send_stream(200, payload_size=8000, interval_ns=2_000)
    pilot.run()
    return pilot.collect_telemetry().snapshot()


def failover_pilot():
    pilot = PilotTestbed(Simulator(seed=42), PilotConfig(
        wan_delay_ns=1 * MILLISECOND, wan_loss_rate=0.02, telemetry=True, flows=3,
        use_directory=True, reliable_from_dtn1=True, failover_buffer=True,
    ))
    pilot.send_split(150, payload_size=4000, interval_ns=2_000)
    pilot.run()
    return pilot.collect_telemetry().snapshot()


def farm():
    farm = ReceiverFarm(Simulator(seed=7), FarmConfig(
        nodes=8, flows=16, wan_loss_rate=0.01, telemetry=True,
    ))
    farm.send_split(256, payload_size=2000, interval_ns=1_000)
    farm.run()
    return farm.collect_telemetry().snapshot()


def chaos_buffer_failover():
    return run_chaos(ChaosConfig(scenario="buffer-failover", messages=120)).metrics.snapshot()


RUNS = {fn.__name__: fn for fn in (lossy_pilot, failover_pilot, farm, chaos_buffer_failover)}


def digest(records) -> str:
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("run", sorted(RUNS))
def test_snapshot_records_are_pinned(run):
    records = [r for r in RUNS[run]() if r["name"] not in ADDED[run]]
    assert digest(records) == SNAPSHOT_DIGESTS[run]


def test_sampled_pilot_series_are_pinned():
    pilot = PilotTestbed(Simulator(seed=42), PilotConfig(
        wan_delay_ns=1 * MILLISECOND, wan_loss_rate=0.02, trace=True, use_directory=True,
        reliable_from_dtn1=True, failover_buffer=True, sample_every_ns=50_000,
    ))
    pilot.send_stream(150, payload_size=4000, interval_ns=2_000)
    pilot.run()
    assert series_digest(pilot.sampler) == SERIES_DIGESTS["pilot"]


def test_sampled_farm_series_are_pinned():
    farm = ReceiverFarm(Simulator(seed=7), FarmConfig(
        nodes=4, flows=4, trace=True, sample_every_ns=100_000,
    ))
    farm.send_split(128, payload_size=2000, interval_ns=1_000)
    farm.run()
    assert series_digest(farm.sampler) == SERIES_DIGESTS["farm"]
