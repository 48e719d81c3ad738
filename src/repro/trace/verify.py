"""INT ↔ trace cross-checking: two observers, one truth.

The telemetry subsystem observes the pilot from *inside the packets*
(INT postcards pushed per hop); the tracer observes it from *inside the
elements* (``element.egress`` spans emitted per hop). Both stamp the
same engine clock at the same instant, so for every postcard a sink
absorbs there must exist an egress span with the same element, trace
identity, timestamp, queue occupancy, and config — with **zero**
tolerance. Any divergence means an instrumentation gap (a hook missing
or misplaced), which is exactly what this module exists to catch.

:class:`RecordingIntSink` is an :class:`~repro.telemetry.inband.IntSink`
that additionally logs, as columns, each absorbed packet's trace
identity and its postcards. :func:`verify_int_consistency` then looks
each logged postcard up in the trace's own clock column.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field, fields
from itertools import chain, islice, pairwise, starmap
from operator import attrgetter, le

from ..netsim.packet import Packet
from ..telemetry.inband import IntHeader, IntPostcard, IntSink
from ..telemetry.registry import MetricsRegistry
from .tracer import _NONE, _SITES, Spans, TraceEvent

_SEQ_MASK = 0xFFFFFFFF

#: The postcard fields the sink logs, one column each.
POSTCARD_FIELDS = tuple(f.name for f in fields(IntPostcard))


class RecordingIntSink(IntSink):
    """An INT sink that also logs every absorbed packet, as columns.

    The metrics side behaves exactly like the plain sink. The log is
    append-only and holds no object per packet or per postcard:
    ``packets`` has an ``array('q')`` per identity field plus ``end``,
    where the packet's rows in ``postcards`` stop, and ``postcards`` has
    one per :data:`POSTCARD_FIELDS` name, in absorption order. A packet
    without an MMT identity is logged with experiment ``-1`` (a real
    experiment id is unsigned).
    """

    def __init__(self, registry: MetricsRegistry, hop_names=None, now=None) -> None:
        super().__init__(registry, hop_names=hop_names, now=now)
        self.packets = {name: array("q") for name in ("exp", "flow", "seq", "end")}
        self.postcards = {name: array("q") for name in POSTCARD_FIELDS}
        self._columns = [(column, attrgetter(name)) for name, column in self.postcards.items()]

    def absorb(self, packet: Packet) -> IntHeader | None:
        mmt = packet.mmt
        header = super().absorb(packet)
        if header is None:
            return None
        if mmt is None or mmt.experiment_id is None or mmt.seq is None:
            identity = (-1, 0, 0)
        else:
            identity = (mmt.experiment_id, mmt.flow_id or 0, mmt.seq)
        for column, value in self._columns:
            column.extend(map(value, header.hops))
        end = len(self.postcards["hop_id"])
        for column, value in zip(self.packets.values(), (*identity, end)):
            column.append(value)
        return header


@dataclass
class IntConsistencyReport:
    """Outcome of one INT ↔ trace cross-check."""

    packets_checked: int = 0
    postcards_checked: int = 0
    mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _in_time_order(segments) -> bool:
    """True when the clock column never runs backwards."""
    clock = chain.from_iterable(islice(chunk.ts, lo, hi) for chunk, lo, hi in segments)
    return all(starmap(le, pairwise(clock)))


def _egress_at(segments, starts: list, ts: int, element: str, sites: set,
               exp: int, flow: int, seq: int) -> dict | None:
    """The attrs of the first ``element.egress`` span of ``element``
    (whose site codes are ``sites``) and the identity stamped at ``ts``,
    or None: a bisection of the clock column, then a walk over the spans
    of that instant, comparing codes and ints."""
    index = bisect_left(starts, ts)
    # The instant may begin in the segment before the first that starts at it.
    for chunk, lo, hi in islice(segments, index - 1 if index else 0, None):
        clock, codes = chunk.ts, chunk.site
        for row in range(bisect_left(clock, ts, lo, hi), hi):
            if clock[row] != ts:
                return None
            if site := codes[row]:
                if (site in sites and chunk.seq[row] == seq and chunk.exp[row] == exp
                        and chunk.flow[row] in (flow, _NONE if flow == 0 else flow)):
                    offsets = chunk.offsets
                    return dict(zip(_SITES[site][2], chunk.values[offsets[row]:offsets[row + 1]]))
                continue
            # An escaped row (its clock column is only rounded): its fields as given.
            _id, when, kind, name, e, f, s, keys, values = chunk.row(row)
            if (when, kind, name, e, f or 0, s) == (ts, "element.egress", element, exp, flow, seq):
                return dict(zip(keys, values))
    return None


def _egress_visits(segments) -> Counter:
    """Timestamps with an ``element.egress`` span, per ``(element, exp,
    flow, seq)``: a missing span's candidates (built at the first miss)."""
    seen = {((element, exp, flow or 0, seq), ts)
            for _id, ts, kind, element, exp, flow, seq, *_attrs in Spans(segments).rows()
            if kind == "element.egress" and exp is not None and seq is not None}
    return Counter(key for key, _ts in seen)


def verify_int_consistency(
    events: Iterable[TraceEvent], sink: RecordingIntSink
) -> IntConsistencyReport:
    """Check every absorbed postcard against the trace's egress spans.

    For each postcard of each packet the sink absorbed, an
    ``element.egress`` event must exist with the same element name,
    the packet's trace identity, ``ts_ns == timestamp_ns``, and equal
    ``queue_pct``/``config`` attributes (tolerance 0). Runs with loss
    verify cleanly too: a lost packet's postcards never reach the sink,
    and retransmitted packets re-marked in the network carry fresh
    postcards that match their own egress spans.

    Spans are found by bisecting the trace's ``ts`` column, which the
    engine clock keeps in order: no index of the trace is built. A
    hand-edited record list that runs backwards is sorted by time first.
    """
    report = IntConsistencyReport()
    segments = Spans.of(events).segments
    if not _in_time_order(segments):
        spans = sorted(Spans(segments), key=attrgetter("ts_ns"))
        segments = Spans.of(spans).segments
    starts = [chunk.ts[lo] for chunk, lo, _hi in segments]
    visits: Counter | None = None

    postcards = zip(*(sink.postcards[name] for name in POSTCARD_FIELDS))
    hops = {}  # hop → its element and the site codes of that element's egress spans
    for hop in set(sink.postcards["hop_id"]):
        element = sink.hop_name(hop)
        hops[hop] = element, {code for code, (kind, name, _keys) in enumerate(_SITES)
                              if kind == "element.egress" and name == element}
    done = 0
    for exp, flow, seq, end in zip(*sink.packets.values()):
        report.packets_checked += 1
        cards = list(islice(postcards, end - done))
        done = end
        if exp < 0:
            report.mismatches.append("absorbed packet without MMT identity")
            continue
        for hop_id, ts, queue_depth_pct, config_id, card_seq, card_flow in cards:
            report.postcards_checked += 1
            element, sites = hops[hop_id]
            if card_flow != flow:
                problems = [f"postcard flow {card_flow} != trace flow {flow}"]
            elif card_seq & _SEQ_MASK != seq & _SEQ_MASK:
                problems = [f"postcard seq {card_seq} != trace seq {seq}"]
            elif (attrs := _egress_at(segments, starts, ts, element, sites,
                                      exp, flow, seq)) is None:
                if visits is None:
                    visits = _egress_visits(segments)
                problems = [f"no element.egress span at t={ts} ({visits[element, exp, flow, seq]}"
                            " candidate(s) at other times)"]
            else:
                problems = [f"{key} {attrs.get(key)} != postcard {want}"
                            for key, want in (("queue_pct", queue_depth_pct), ("config", config_id))
                            if attrs.get(key) != want]
            if problems:
                report.mismatches += [f"{element} exp={exp} flow={flow} seq={seq}: {problem}"
                                      for problem in problems]
    return report


def attach_recording_sink(pilot) -> RecordingIntSink:
    """Swap a pilot's INT sink for a recording one (before ``run``).

    The recording sink feeds its *own* fresh registry, so the pilot's
    ``metrics`` registry is not double-fed; read INT metrics from
    ``sink.registry`` instead.
    """
    if pilot.int_domain is None:
        raise RuntimeError("pilot has no INT domain; build with telemetry=True")
    sink = RecordingIntSink(
        MetricsRegistry(), hop_names=pilot.int_domain.hop_names
    )
    pilot.dtn2_stack.int_sink = sink
    return sink
