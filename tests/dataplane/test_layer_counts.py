"""Exact per-layer call counts for three seeded builds.

``layerbench`` folds a profile of a real run into layers (engine,
links, packets, codec, pipeline, endpoint, observation ...). This file
profiles the same kinds of run at reduced size and folds them with the
same, unchanged ``layerbench.fold``, then pins every layer's call count
exactly, so a call added to or dropped from any layer fails in tier-1.
It also pins what those runs simulate: engine events, spans, samples,
INT postcards, TCP retransmits and CE marks.

Two things make the counts repeat on any checkout, in any process:

- ``pstats`` keys a function by ``(file, line, name)`` and overwrites
  equal keys. Every dataclass-generated ``__init__`` is ``('<string>',
  2, '__init__')``, so ``pstats`` kept the calls of one of them, picked
  by code-object address. :func:`profile_stats` labels each one by its
  class's module file and qualified name instead.
- Module-level memo caches make the first run of a build in a process
  read differently, so each build runs once unprofiled first, and the
  profiled run keeps the cycle collector (and its callbacks) off.
"""

import cProfile
import gc
import pstats
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

import repro
from layerbench.fold import LAYERS, fold_profile, map_source_tree
from repro.dataplane import PilotConfig, PilotTestbed
from repro.integration.incast import IncastConfig, run_incast
from repro.netsim import Simulator
from repro.netsim.units import MILLISECOND
from repro.obs import series_digest
from repro.trace import attach_recording_sink, trace_digest, verify_int_consistency

MESSAGES = 800

#: Comprehensions that Python 3.12 runs in the enclosing frame (PEP
#: 709). They count as no call on every version, so pins hold on all.
INLINED = {"<listcomp>", "<dictcomp>", "<setcomp>"}


def generated_labels() -> dict:
    """``{id(code): (module file, line, "Class.method")}`` for every
    method a module-level class got from generated source."""
    labels = {}
    for module in list(sys.modules.values()):
        file = getattr(module, "__file__", None)
        for cls in list(vars(module).values()) if file else ():
            if not isinstance(cls, type) or cls.__module__ != module.__name__:
                continue
            for name, attr in vars(cls).items():
                code = getattr(getattr(attr, "__func__", attr), "__code__", None)
                if code is not None and code.co_filename.startswith("<"):
                    labels[id(code)] = (file, code.co_firstlineno, f"{cls.__qualname__}.{name}")
    return labels


def profile_stats(profiler: cProfile.Profile) -> dict:
    """``pstats``-shaped stats of ``profiler``, each code object apart.

    A copy of ``cProfile.Profile.snapshot_stats`` with two changes:
    generated methods are labelled by their class, and code objects
    that still share a label are summed rather than overwritten.
    """
    owners = generated_labels()

    def label(code):
        if isinstance(code, str):
            return ("~", 0, code)
        return owners.get(id(code)) or (code.co_filename, code.co_firstlineno, code.co_name)

    entries = profiler.getstats()
    stats, callers_of = {}, {}
    for entry in entries:
        func = label(entry.code)
        calls = 0 if func[2] in INLINED else entry.callcount
        cc, nc, tt, ct, callers = stats.get(func, (0, 0, 0.0, 0.0, {}))
        stats[func] = (cc + calls - entry.reccallcount, nc + calls,
                       tt + entry.inlinetime, ct + entry.totaltime, callers)
        callers_of[id(entry.code)] = callers
    for entry in entries:
        func = label(entry.code)
        for sub in entry.calls or ():
            callers = callers_of.get(id(sub.code))
            if callers is not None:
                calls = 0 if label(sub.code)[2] in INLINED else sub.callcount
                nc, cc, tt, ct = callers.get(func, (0, 0, 0.0, 0.0))
                callers[func] = (nc + calls, cc + calls - sub.reccallcount,
                                 tt + sub.inlinetime, ct + sub.totaltime)
    return stats


def folded(build) -> tuple[object, dict]:
    """``(what the run returned, {layer: calls})`` for the second run of
    ``build``; ``build()`` returns a zero-argument run, and only the
    second run is profiled. The cycle collector is off meanwhile: a
    ``gc.callbacks`` hook another module installed (hypothesis has one)
    would otherwise be charged to whichever layer was allocating."""
    build()()
    run = build()
    gc.collect()
    gc.disable()
    profiler = cProfile.Profile()
    try:
        profiler.enable()
        result = run()
        profiler.disable()
    finally:
        gc.enable()
    fold = fold_profile(profile_stats(profiler), map_source_tree(Path(repro.__file__).parent))
    return result, {layer: fold[layer]["calls"] for layer in LAYERS if fold[layer]["calls"]}


# -- the three builds ------------------------------------------------------------


def fig4():
    """The 800-message "fabric-like (10 ms WAN)" row of BENCH_fig4_pilot."""
    pilot = PilotTestbed(Simulator(seed=31), PilotConfig(wan_delay_ns=10 * MILLISECOND))
    pilot.send_stream(MESSAGES, payload_size=8000, interval_ns=2_000)

    def run():
        pilot.run()
        return pilot

    return run


def pilot_observed():
    """The same traffic under 1 % WAN loss with INT, spans, sampling and
    the scrape on, verified and digested like layerbench's pilot_observed."""
    config = PilotConfig(wan_delay_ns=10 * MILLISECOND, wan_loss_rate=0.01,
                         telemetry=True, trace=True, sample_every_ns=100_000)
    pilot = PilotTestbed(Simulator(seed=31), config)
    sink = attach_recording_sink(pilot)
    pilot.send_stream(MESSAGES, payload_size=8000, interval_ns=2_000)

    def run():
        pilot.run()
        pilot.collect_telemetry()
        events = pilot.tracer.events()
        trace_digest(events)
        series_digest(pilot.sampler)
        assert verify_int_consistency(events, sink).ok
        return pilot

    return run


def pilot_counts(pilot) -> dict:
    report = pilot.report()
    return {
        "delivered": report.delivered,
        "unrecovered": report.unrecovered,
        "events": pilot.sim.events_processed,
        "spans": pilot.tracer.events_emitted if pilot.tracer else 0,
        "samples": pilot.sampler.sample_emits if pilot.sampler else 0,
        "int_postcards": sum(element.stats.int_postcards_pushed
                             for element in (pilot.u280, pilot.tofino, pilot.u55c)),
    }


def incast_n16():
    """One TCP cell of layerbench's incast_n16: 16 senders on the ECN
    leaf-spine, so fabric build, RED queues and the baseline carry it."""
    config = IncastConfig(transport="tcp", senders=16, load=1.5, mark_threshold=0.2,
                          symmetric=True, ecn=True, seed=7)
    return lambda: run_incast(config)


def incast_counts(report) -> dict:
    return {
        "completed": report.summary.completed,
        "tcp_retransmits": report.extra["retransmits"],
        "ce_marked": report.ce_marked,
    }


# -- the pins --------------------------------------------------------------------

#: Nothing observes this run, so trace, telemetry and obs make no call.
FIG4_CALLS = {
    "netsim.engine": 12803.0, "netsim.link": 43200.0, "netsim.queues": 19200.0,
    "netsim.packet": 13600.0, "netsim.nodes": 12208.0, "core.header": 18400.0,
    "core.modes": 19200.0, "core.endpoint": 21603.0, "core.retransmit": 12808.0,
    "dataplane.pipeline": 61639.0, "dataplane.element": 22403.0, "other": 2.0,
}

#: The run phase includes the scrape, both digests and the INT check,
#: and the lossy WAN link's first draw, which seeds its stream.
OBSERVED_CALLS = {
    "netsim.engine": 18564.0, "netsim.link": 44325.0, "netsim.queues": 19348.0,
    "netsim.packet": 23243.0, "netsim.nodes": 12365.0, "core.header": 18621.0,
    "core.modes": 19176.0, "core.endpoint": 28259.0, "core.retransmit": 15738.0,
    "dataplane.pipeline": 61922.0, "dataplane.element": 39551.0, "telemetry": 61421.0,
    "trace": 64902.4705882353, "obs": 45501.529411764706, "other": 2.0,
}

#: The fabric is built inside the run, so route installation shows in
#: netsim.nodes, and seeding the two streams the cell draws from in
#: netsim.engine.
INCAST_CALLS = {
    "netsim.engine": 10404.072463768112, "netsim.link": 28000.0, "netsim.queues": 13070.0,
    "netsim.packet": 6514.0, "netsim.nodes": 19692.927536231888,
    "baselines": 18036.0, "harness": 528.0, "other": 2.0,
}

UNOBSERVED = {"spans": 0, "samples": 0, "int_postcards": 0}
PINS = {
    "fig4": (fig4, pilot_counts, {
        "delivered": 800, "unrecovered": 0, "events": 12800, **UNOBSERVED,
    }, FIG4_CALLS),
    "pilot_observed": (pilot_observed, pilot_counts, {
        "delivered": 800, "unrecovered": 0, "events": 13406, "spans": 10477,
        "samples": 11066, "int_postcards": 2392,
    }, OBSERVED_CALLS),
    "incast_n16": (incast_n16, incast_counts, {
        "completed": 16, "tcp_retransmits": 92, "ce_marked": 244,
    }, INCAST_CALLS),
}


@pytest.mark.parametrize("name", PINS)
def test_every_layer_makes_exactly_its_pinned_calls(name):
    build, counts, simulated, calls = PINS[name]
    result, folded_calls = folded(build)
    assert counts(result) == simulated
    assert folded_calls == calls


# -- the helper itself -----------------------------------------------------------


@dataclass
class Left:
    x: int = 0


@dataclass
class Right:
    y: int = 0


def test_generated_inits_are_counted_apart():
    profiler = cProfile.Profile()
    profiler.enable()
    Left()
    Right()
    Right()
    profiler.disable()
    stats = profile_stats(profiler)
    assert stats[(__file__, 2, "Left.__init__")][1] == 1
    assert stats[(__file__, 2, "Right.__init__")][1] == 2
    # pstats keys both ('<string>', 2, '__init__'), so one overwrites the
    # other and the capture keeps 1 or 2 of the 3 calls, by address.
    kept = [calls for (file, _line, name), (_cc, calls, *_rest)
            in pstats.Stats(profiler).stats.items()
            if file.startswith("<") and name == "__init__"]
    assert kept in ([1], [2])
