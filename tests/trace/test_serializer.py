"""The compiled trace writer against the encoder it replaced.

``repro.trace.export._event_lines`` writes a span's JSON line from a
template compiled for the record's fixed schema. The serializer it
replaced — ``json.JSONEncoder(sort_keys=True).encode`` on the span's
``to_dict()`` — lives on here as the oracle: every line must be byte
for byte what it produces, whatever the span holds.

Checked against one sabotage while this file was written: with
``"exp"`` and ``"flow"`` swapped in ``export._FIXED``, 10 of the 12
tests here fail (the two that survive serialize nothing: the empty
digest and the two spans the encoder rejects), and so do the golden
digests of ``tests/trace/test_pilot_trace.py`` and
``tests/faults/test_mode_rewrite.py``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.trace import TraceEvent, Tracer, load_trace, trace_digest, write_trace
from repro.trace.export import _HASH_BATCH, _event_lines
from tests.proptest.strategies import Gen, cases

oracle_encode = json.JSONEncoder(sort_keys=True).encode


def oracle_line(event: TraceEvent) -> str:
    return oracle_encode(event.to_dict() | {"kind": "event"})


def oracle_digest(events) -> str:
    return hashlib.sha256("\n".join(map(oracle_line, events)).encode()).hexdigest()


#: Characters a key or a string value is drawn from: plain, the two
#: JSON must escape, control characters, ``%`` (the template's own
#: metacharacter), non-ASCII inside and outside the BMP.
ALPHABET = ["a", "b", "z", "A", "_", ".", " ", '"', "\\", "/", "%", "%s", "{", "}",
            "\n", "\t", "\x00", "\x1f", "\x7f", "é", "ß", "\u2028", "→", "𝛑"]

IDENTITY = [None, 0, 1, 7, 65_535, 2**31, 2**63, 2**80, -1]


def text(gen: Gen, low: int = 0) -> str:
    return "".join(gen.choice(ALPHABET) for _ in range(gen.integer(low, 6)))


def value(gen: Gen, depth: int = 0):
    kind = gen.integer(0, 9 if depth < 2 else 6)
    if kind <= 2:
        return gen.choice(IDENTITY[1:])
    if kind <= 4:
        return text(gen)
    if kind == 5:
        return None
    if kind == 6:
        return gen.choice([True, False, 0.0, -0.0, 1.5, 1e300, 1e-7, float("inf")])
    if kind == 7:
        return [value(gen, depth + 1) for _ in range(gen.integer(0, 3))]
    return {text(gen): value(gen, depth + 1) for _ in range(gen.integer(0, 3))}


def arbitrary_span(gen: Gen, index: int) -> TraceEvent:
    attrs = None
    if gen.boolean(0.8):
        # Unique keys in shuffled order, so the writer has to sort them.
        keys = gen.shuffled({text(gen, low=gen.integer(0, 1)) for _ in range(gen.integer(1, 5))})
        attrs = {key: value(gen) for key in keys}
    return TraceEvent(
        id=gen.choice([index, 0, 2**40 + index]),
        ts_ns=gen.choice([0, index * 1_000, 2**62]),
        kind=gen.choice(["element.egress", "queue.wait", text(gen)]),
        element=gen.choice(["alveo-u280", "wan", text(gen)]),
        experiment_id=gen.choice(IDENTITY),
        flow_id=gen.choice(IDENTITY),
        seq=gen.choice(IDENTITY),
        attrs=attrs,
    )


def test_compiled_lines_equal_the_encoder_line_for_line():
    for case, gen in cases(120):
        events = [arbitrary_span(gen, i) for i in range(gen.integer(1, 12))]
        lines = list(_event_lines(events))
        assert len(lines) == len(events)
        for event, line in zip(events, lines):
            assert line == oracle_line(event), f"case {case} seed {gen.seed}: {event!r}"
        assert trace_digest(events) == oracle_digest(events), f"case {case} seed {gen.seed}"


def test_fixed_cases_the_generator_could_miss():
    events = [
        TraceEvent(0, 0, "k", "x"),  # nothing optional
        TraceEvent(1, 5, "k", "x", 7, None, 3, {}),  # empty attrs are no attrs
        TraceEvent(2, 5, "k", "x", 7, 0, 3, {"b": 1, "a": 2, "C": 3, "": 4}),
        TraceEvent(3, 5, "k", "x", True, False, 1.0, {"flag": True, "ratio": 0.25}),
        TraceEvent(4, 5, "k", "x", attrs={"%d": "%s", "100%": "%(x)s", "%%": 1}),
        TraceEvent(5, 5, "é→", "\"quoted\"\\", attrs={"nested": {"z": [1, {"y": None}], "a": "é"}}),
        TraceEvent("6", 5.5, None, 17, "exp", [1], {"k": 1}),  # wrong types everywhere
        TraceEvent(7, 5, "k", "x", attrs={1: "int key", 2: "another"}),
        TraceEvent(8, 5, "k", "x", attrs={True: "bool key"}),
        TraceEvent(9, 5, "k", "x", attrs={None: "null key"}),
    ]
    assert list(_event_lines(events)) == [oracle_line(event) for event in events]


def test_what_the_encoder_rejects_the_writer_rejects():
    mixed = TraceEvent(0, 0, "k", "x", attrs={"a": 1, 2: 3})  # keys do not sort
    opaque = TraceEvent(0, 0, "k", "x", attrs={"a": object()})
    for event in (mixed, opaque):
        with pytest.raises(TypeError):
            oracle_line(event)
        with pytest.raises(TypeError):
            list(_event_lines([event]))


def test_one_memo_serves_equal_strings_of_different_meaning():
    """1, True and "1" hash or read alike; each keeps its own JSON form."""
    events = [
        TraceEvent(0, 0, "1", "1", 1, 1, 1, {"1": "1", "t": True, "i": 1, "f": 1.0}),
        TraceEvent(1, 0, "1", "1", 1, 1, 1, {"1": 1, "t": 1, "i": True, "f": "1.0"}),
    ]
    assert list(_event_lines(events)) == [oracle_line(event) for event in events]


@pytest.mark.parametrize("count", [0, 1, _HASH_BATCH - 1, _HASH_BATCH, _HASH_BATCH + 1,
                                   2 * _HASH_BATCH, 2 * _HASH_BATCH + 7])
def test_batched_hashing_hashes_the_same_bytes(count):
    events = [TraceEvent(i, i, "element.egress", "wan", 7, 0, i, {"msg": "DATA", "n": i})
              for i in range(count)]
    assert trace_digest(events) == oracle_digest(events)


def test_written_trace_loads_back_equal(tmp_path):
    class Clock:
        now = 0

    for case, gen in cases(20):
        tracer = Tracer(Clock())
        spans = [arbitrary_span(gen, i) for i in range(gen.integer(1, 10))]
        for span in spans:
            tracer.emit(span.kind, span.element, span.experiment_id, span.flow_id, span.seq,
                        **(span.attrs or {}))
        path = tmp_path / f"trace{case}.jsonl"
        assert write_trace(tracer, str(path)) == 1 + tracer.events_emitted
        body = path.read_text(encoding="utf-8").splitlines()[1:]
        assert body == [oracle_line(event) for event in tracer.events()]
        _meta, loaded = load_trace(str(path))
        assert [event.to_dict() for event in loaded] == [e.to_dict() for e in tracer.events()]
        assert trace_digest(loaded) == trace_digest(tracer.events()), f"case {case}"
