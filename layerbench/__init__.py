"""layerbench — the repo's benchmark for real runs.

Four named workloads (Fig. 4 pilot clean / observed, Fig. 2 incast,
64-node fleet), end-to-end host cost next to exact simulated results,
and a per-layer fold of one profiled rep. See ``README.md`` here and
``BENCHMARK.json`` at the repo root. Nothing under ``src/repro`` knows
this package exists; it drives the harness through public API only.
"""

#: Seed of a plain ``python3 -m layerbench.run``; the only seed whose
#: simulated results ``expected.json`` pins.
DEFAULT_SEED = 7
