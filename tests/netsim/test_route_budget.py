"""Deterministic build-cost budget for route installation.

The routing twin of ``tests/dataplane/test_call_budget.py``: host time
is noisy, Python *call counts* for a seeded build repeat exactly. Route
installation used to be one shortest-path search per ordered pair of
addressable nodes feeding a table that re-sorted on every add — 97 % of
an incast cell's build and 99 % of the 64-node farm's. It is now one
tree per destination and one table write per (node, destination
address); a change that brings back per-pair work fails here, not weeks
later in ``layerbench``'s ``setup_s``.
"""

import cProfile
import pstats
import subprocess
import sys
from pathlib import Path

import repro
from repro.fleet import FleetConfig, FleetOrchestrator
from repro.integration.incast import IncastConfig, _build_fabric
from repro.netsim import RoutingTable, Simulator

#: Python + builtin calls to build the 64-node / 128-flow fleet
#: (4.10 M with per-pair installation; ~0.20 M with trees).
FLEET_BUILD_CALLS_BUDGET = 250_000

#: The same for one N=16 incast fabric (154 k before; ~17 k after).
INCAST_FABRIC_CALLS_BUDGET = 20_000


def _profiled(build):
    profiler = cProfile.Profile()
    profiler.enable()
    built = build()
    profiler.disable()
    return built, pstats.Stats(profiler)


def _calls_to(stats, function) -> int:
    code = function.__code__
    key = (code.co_filename, code.co_firstlineno, code.co_name)
    return stats.stats[key][1]


def _tree_path_writes(topology) -> int:
    """(L3 node on a tree path, destination address) pairs."""
    addressable = [n for n in topology.nodes.values() if getattr(n, "ip", None) is not None]
    writes = 0
    for dst in addressable:
        on_path = set()
        for src in addressable:
            on_path.update(n.name for n in topology.path(src, dst)[:-1] if hasattr(n, "add_route"))
        writes += len(on_path) * len(getattr(dst, "addresses", None) or {dst.ip})
    return writes


def test_fleet_build_stays_inside_its_call_budget():
    fleet, stats = _profiled(lambda: FleetOrchestrator(FleetConfig(nodes=64, flows=128)))
    assert stats.total_calls <= FLEET_BUILD_CALLS_BUDGET, stats.total_calls
    writes = _tree_path_writes(fleet.farm.topology)
    assert writes == 4556  # 9364 when every ordered pair rewrote its whole path
    assert _calls_to(stats, RoutingTable.add) == writes


def test_incast_fabric_build_stays_inside_its_call_budget():
    config = IncastConfig(senders=16)  # 2 leaves x 2 spines x 9 hosts
    fabric, stats = _profiled(lambda: _build_fabric(Simulator(seed=7), config))
    assert stats.total_calls <= INCAST_FABRIC_CALLS_BUDGET, stats.total_calls
    writes = _tree_path_writes(fabric.topology)
    assert writes == 360  # 936 before
    assert _calls_to(stats, RoutingTable.add) == writes


def test_the_cli_starts_without_networkx():
    # A fresh interpreter: this process imported networkx for the oracle tests.
    src = str(Path(repro.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import repro.cli; "
        "sys.exit('networkx' in sys.modules)"
    )
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
