"""Deterministic build-cost budget for route installation.

The routing twin of ``tests/dataplane/test_call_budget.py``: host time
is noisy, Python *call counts* for a seeded build repeat exactly. Route
installation used to be one shortest-path search per ordered pair of
addressable nodes feeding a table that re-sorted on every add — 97 % of
an incast cell's build and 99 % of the 64-node farm's. It is now one
tree per destination, walked once, and one table write per (node,
destination address); a change that brings back per-pair work fails
here, not weeks later in ``layerbench``'s ``setup_s``. The budgets are
a first build in a fresh process (memo caches cold) plus 5 %; a build
after other tests warmed those caches only counts fewer.

Calls are summed per code object, as in ``test_layer_counts.py``:
``pstats`` keys every dataclass-generated ``__init__`` as ``('<string>',
2, '__init__')`` and keeps one of them, picked by code-object address,
so its total moved by the 4 556 route-entry inits from one process to
the next.
"""

import cProfile
import gc
import subprocess
import sys
from pathlib import Path

import repro
from repro.fleet import FleetConfig, FleetOrchestrator
from repro.integration.incast import IncastConfig, _build_fabric
from repro.netsim import RoutingTable, Simulator

#: Python + builtin calls to build the 64-node / 128-flow fleet: 4.10 M
#: with per-pair installation, 204 k with a tree walked once per source
#: and routes keyed on ``IPv4Network``, 70 880 with one walk per tree
#: (those three as ``pstats`` kept them); 76 146 counted per code object.
FLEET_BUILD_CALLS_BUDGET = 79_950

#: The same for one N=16 incast fabric: 154 k, 17 116, 6 246; 6 608
#: counted per code object.
INCAST_FABRIC_CALLS_BUDGET = 6_930

#: Comprehensions that Python 3.12 runs in the enclosing frame (PEP
#: 709). They count as no call on every version, so budgets hold on all.
INLINED = {"<listcomp>", "<dictcomp>", "<setcomp>"}


def _profiled(build):
    """``(what build returned, profiler entries)``, the cycle collector
    (and any callback a test library hung on it) off while it runs."""
    profiler = cProfile.Profile()
    gc.disable()
    try:
        profiler.enable()
        built = build()
        profiler.disable()
    finally:
        gc.enable()
    return built, profiler.getstats()


def _total_calls(entries) -> int:
    return sum(0 if getattr(entry.code, "co_name", None) in INLINED else entry.callcount
               for entry in entries)


def _calls_to(entries, function) -> int:
    return sum(entry.callcount for entry in entries if entry.code is function.__code__)


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
    fleet, entries = _profiled(lambda: FleetOrchestrator(FleetConfig(nodes=64, flows=128)))
    assert _total_calls(entries) <= FLEET_BUILD_CALLS_BUDGET, _total_calls(entries)
    writes = _tree_path_writes(fleet.farm.topology)
    assert writes == 4556  # 9364 when every ordered pair rewrote its whole path
    assert _calls_to(entries, RoutingTable.add) == writes


def test_incast_fabric_build_stays_inside_its_call_budget():
    config = IncastConfig(senders=16)  # 2 leaves x 2 spines x 9 hosts
    fabric, entries = _profiled(lambda: _build_fabric(Simulator(seed=7), config))
    assert _total_calls(entries) <= INCAST_FABRIC_CALLS_BUDGET, _total_calls(entries)
    writes = _tree_path_writes(fabric.topology)
    assert writes == 360  # 936 before
    assert _calls_to(entries, RoutingTable.add) == writes


def test_the_cli_starts_without_networkx():
    # A fresh interpreter: nothing another test imported is already loaded.
    src = str(Path(repro.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import repro.cli; "
        "sys.exit('networkx' in sys.modules)"
    )
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
