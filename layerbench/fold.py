"""Fold a ``cProfile`` capture of one public call into per-layer costs.

Inside ``run()`` no call from the benchmark crosses a layer boundary —
the engine heap calls every layer — so spans cannot separate layers.
Instead the traced rep profiles that same public call and the profile
is folded by *source file* through the fixed map below:

- a function defined under ``src/repro`` is charged (self time and call
  count) to the layer that owns its file;
- a builtin / stdlib / third-party function is charged to whoever
  called it, following the profiler's ``callers`` table until a
  ``repro`` function is reached (``heappop`` lands in ``netsim.engine``,
  ``Random.random`` → ``getrandbits`` in ``netsim.queues``, networkx
  route computation in ``netsim.nodes``);
- what no ``repro`` function called is ``other``.

Self time is the profiler's ``tottime`` (children already excluded).
The profiler taxes Python calls and not C code, so the fold is read as
shares and per-message ratios, never as absolute speeds.
"""

from __future__ import annotations

from fnmatch import fnmatch
from pathlib import Path

#: layer → file patterns relative to ``src/repro``. ``harness`` owns
#: every file no other layer claims; ``other`` owns no file at all.
LAYER_FILES = {
    "netsim.engine": ("netsim/engine.py",),
    "netsim.link": ("netsim/link.py", "netsim/loss.py"),
    "netsim.queues": ("netsim/queues.py",),
    "netsim.packet": ("netsim/packet.py", "netsim/headers.py"),
    "netsim.nodes": ("netsim/host.py", "netsim/switch.py", "netsim/node.py",
                     "netsim/topology.py", "netsim/units.py", "netsim/__init__.py"),
    "core.header": ("core/header.py", "core/features.py", "core/train.py",
                    "core/__init__.py"),
    "core.modes": ("core/modes.py", "core/aging.py", "core/seqspace.py"),
    "core.endpoint": ("core/endpoint.py", "core/control.py"),
    "core.retransmit": ("core/retransmit.py",),
    "dataplane.pipeline": ("dataplane/pipeline.py", "dataplane/programs.py"),
    "dataplane.element": ("dataplane/element.py", "dataplane/alveo.py",
                          "dataplane/tofino.py", "dataplane/loadbalancer.py",
                          "dataplane/segment.py", "dataplane/pilot.py",
                          "dataplane/__init__.py"),
    "baselines": ("baselines/*",),
    "fleet": ("fleet/*",),
    "telemetry": ("telemetry/*",),
    "trace": ("trace/*", "netsim/trace.py", "netsim/recorder.py"),
    "obs": ("obs/*",),
}
HARNESS = "harness"
OTHER = "other"
LAYERS = (*LAYER_FILES, HARNESS, OTHER)


class LayerMapError(ValueError):
    """A source file is claimed by more than one layer."""


def layer_of(relative_path: str) -> str:
    """The one layer owning ``relative_path`` (relative to ``src/repro``)."""
    owners = [
        layer for layer, patterns in LAYER_FILES.items()
        if any(fnmatch(relative_path, pattern) for pattern in patterns)
    ]
    if len(owners) > 1:
        raise LayerMapError(f"{relative_path} maps to {len(owners)} layers: {owners}")
    return owners[0] if owners else HARNESS


def map_source_tree(package_root: Path) -> dict[str, str]:
    """``{absolute file → layer}`` for every ``*.py`` under the package.

    Raises :class:`LayerMapError` if any file maps to two layers; a file
    no pattern names is ``harness`` by definition, so none maps to zero.
    """
    return {
        str(path): layer_of(path.relative_to(package_root).as_posix())
        for path in sorted(package_root.rglob("*.py"))
    }


#: Passes of caller attribution; each pass carries a layer's claim one
#: foreign frame further down (networkx nests about a dozen deep).
ATTRIBUTION_PASSES = 48


def _foreign_shares(stats: dict, file_layers: dict[str, str], field: int) -> dict:
    """``{foreign function: {layer: share}}``, weighted by ``field`` of the
    ``callers`` rows (1 = call count, 2 = self time).

    A foreign function inherits its callers' layers in proportion to the
    weight each caller contributed; foreign callers pass on what they
    inherited in the previous pass, so claims flow down call chains and
    settle (recursion among foreign frames just recirculates a share
    that the final normalisation removes).
    """
    weights: dict = {}
    for func in sorted(stats):
        if func[0] in file_layers:
            continue
        callers = stats[func][4]
        row = {c: callers[c][field] for c in sorted(callers)}
        if not any(row.values()):
            row = {c: callers[c][1] for c in row}
        total = sum(row.values())
        weights[func] = [(c, w / total) for c, w in row.items() if w] if total else []

    shares: dict = {func: {} for func in weights}
    for _ in range(ATTRIBUTION_PASSES):
        settled = {}
        for func, row in weights.items():
            acc: dict[str, float] = {}
            for caller, weight in row:
                layer = file_layers.get(caller[0])
                parts = {layer: 1.0} if layer is not None else shares.get(caller, {})
                for name, part in parts.items():
                    acc[name] = acc.get(name, 0.0) + weight * part
            settled[func] = acc
        shares = settled

    for func, acc in shares.items():
        claimed = sum(acc.values())
        shares[func] = ({name: part / claimed for name, part in acc.items()}
                        if claimed > 0 else {OTHER: 1.0})
    return shares


def fold_profile(stats: dict, file_layers: dict[str, str]) -> dict[str, dict]:
    """Fold ``pstats.Stats(...).stats`` into ``{layer: {self_s, calls}}``.

    ``stats`` maps ``(file, line, name)`` to ``(primitive calls, calls,
    tottime, cumtime, callers)``, ``callers`` mapping each caller to the
    same four numbers restricted to calls from it. Iteration is over
    sorted keys so equal profiles fold to bit-equal floats.
    """
    totals = {layer: {"self_s": 0.0, "calls": 0.0} for layer in LAYERS}
    time_shares = _foreign_shares(stats, file_layers, 2)
    call_shares = _foreign_shares(stats, file_layers, 1)
    for func in sorted(stats):
        _cc, calls, self_s, _ct, _callers = stats[func]
        layer = file_layers.get(func[0])
        if layer is not None:
            totals[layer]["self_s"] += self_s
            totals[layer]["calls"] += calls
            continue
        for name, part in time_shares[func].items():
            totals[name]["self_s"] += self_s * part
        for name, part in call_shares[func].items():
            totals[name]["calls"] += calls * part
    return totals


def top_functions(stats: dict, file_layers: dict[str, str], limit: int = 25) -> list[dict]:
    """The heaviest functions by self time, for the written profile."""
    rows = [
        {
            "function": f"{Path(func[0]).name}:{func[1]}:{func[2]}",
            "layer": file_layers.get(func[0], "(charged to callers)"),
            "calls": values[1],
            "self_s": values[2],
        }
        for func, values in stats.items()
    ]
    rows.sort(key=lambda row: (-row["self_s"], row["function"]))
    return rows[:limit]
