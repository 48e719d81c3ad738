"""Shared benchmark helpers for the benches CI runs.

Each bench runs its experiment once (simulations are deterministic;
repetition adds nothing but wall time) via
``benchmark.pedantic(..., rounds=1)``, prints its table and asserts its
contract inline. Run one with::

    pytest benchmarks/bench_fig4_pilot.py --benchmark-only -s

A bench that records a seed on its ``bench_result`` fixture (fig4_pilot,
multiflow, sweep) has its result written at session end to
``BENCH_<name>.json`` at the repo root in one shared schema (name,
params, metrics, seed, wall time — see :mod:`repro.telemetry.benchfmt`);
those files are committed baselines. A seedless result could never be
one (``repro report`` rejects it), so it is not written. Wall time is
captured around the ``once`` runner. The paper's claims at tier-1 size
live in ``tests/test_claims.py``.
"""

from __future__ import annotations

import time

import pytest

from repro.telemetry import BenchResult

#: BenchResult per bench module, keyed by short name ("fig4_pilot", ...).
_RESULTS: dict[str, BenchResult] = {}


def _bench_name(module_name: str) -> str:
    short = module_name.rpartition(".")[2]
    return short.removeprefix("bench_")


def result_for(module_name: str) -> BenchResult:
    """The shared :class:`BenchResult` for one bench module."""
    name = _bench_name(module_name)
    if name not in _RESULTS:
        _RESULTS[name] = BenchResult(name=name)
    return _RESULTS[name]


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark ``fn`` with a single round and return its result."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def bench_result(request) -> BenchResult:
    """This bench module's result record; written at session end."""
    return result_for(request.module.__name__)


@pytest.fixture
def once(benchmark, request):
    """Single-round benchmark runner that also records wall time.

    The elapsed time lands in the module's ``BenchResult`` under the
    requesting test's name, so every ``BENCH_*.json`` carries timing
    even when the bench records no other metrics.
    """
    result = result_for(request.module.__name__)

    def runner(fn, *args, **kwargs):
        start = time.perf_counter()
        value = run_once(benchmark, fn, *args, **kwargs)
        result.add_wall_time(request.node.name, time.perf_counter() - start)
        return value

    return runner


def pytest_sessionfinish(session):
    for result in _RESULTS.values():
        if result.seed is not None:
            result.write(str(session.config.rootpath))
    _RESULTS.clear()
