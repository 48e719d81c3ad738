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
that additionally remembers, per absorbed packet, the packet's trace
identity and its postcards. :func:`verify_int_consistency` then replays
that record against the trace.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field

from ..core.header import MmtHeader
from ..netsim.packet import Packet
from ..telemetry.inband import IntHeader, IntPostcard, IntSink
from ..telemetry.registry import MetricsRegistry
from .tracer import Spans, TraceEvent

_SEQ_MASK = 0xFFFFFFFF


class RecordingIntSink(IntSink):
    """An INT sink that also logs (identity, postcards) per packet.

    The metrics side behaves exactly like the plain sink; the recording
    is an append-only log consumed by :func:`verify_int_consistency`.
    """

    def __init__(self, registry: MetricsRegistry, hop_names=None, now=None) -> None:
        super().__init__(registry, hop_names=hop_names, now=now)
        #: One entry per absorbed packet:
        #: ``((experiment, flow, seq), [postcards])``.
        self.absorbed: list[tuple[tuple[int, int, int] | None, list[IntPostcard]]] = []

    def absorb(self, packet: Packet) -> IntHeader | None:
        mmt = packet.find(MmtHeader)
        header = super().absorb(packet)
        if header is None:
            return None
        identity = None
        if mmt is not None and mmt.experiment_id is not None and mmt.seq is not None:
            identity = (mmt.experiment_id, mmt.flow_id or 0, mmt.seq)
        # The header is off the packet for good: its hop list is ours.
        self.absorbed.append((identity, header.hops))
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
    """
    report = IntConsistencyReport()
    # Egress spans by (element, experiment, flow, seq, ts) → (queue_pct,
    # config), read off the span columns: no record is built. A packet
    # revisiting a hop (retransmission) leaves one key per visit.
    egress: dict[tuple, tuple] = {}
    for chunk, lo, hi in Spans.of(events).segments:
        values = chunk.values
        for _id, ts, kind, element, exp, flow, seq, keys, start, stop in chunk.rows(lo, hi):
            if kind != "element.egress" or exp is None or seq is None:
                continue
            key = (element, exp, flow or 0, seq, ts)
            if key not in egress:
                attrs = dict(zip(keys, values[start:stop]))
                egress[key] = (attrs.get("queue_pct"), attrs.get("config"))
    visits: Counter | None = None  # (element, identity) → visits, counted at a first miss

    for identity, postcards in sink.absorbed:
        report.packets_checked += 1
        if identity is None:
            report.mismatches.append("absorbed packet without MMT identity")
            continue
        exp, flow, seq = identity
        for postcard in postcards:
            report.postcards_checked += 1
            element = sink.hop_name(postcard.hop_id)
            tag = f"{element} exp={exp} flow={flow} seq={seq}"
            if postcard.flow_id != flow:
                report.mismatches.append(
                    f"{tag}: postcard flow {postcard.flow_id} != trace flow {flow}"
                )
                continue
            if postcard.seq & _SEQ_MASK != seq & _SEQ_MASK:
                report.mismatches.append(
                    f"{tag}: postcard seq {postcard.seq} != trace seq {seq}"
                )
                continue
            key = (element, exp, flow, seq, postcard.timestamp_ns)
            if key not in egress:
                if visits is None:
                    visits = Counter(seen[:4] for seen in egress)
                report.mismatches.append(
                    f"{tag}: no element.egress span at t={postcard.timestamp_ns}"
                    f" ({visits[key[:4]]} candidate(s) at other times)"
                )
                continue
            queue_pct, config = egress[key]
            if queue_pct != postcard.queue_depth_pct:
                report.mismatches.append(
                    f"{tag}: queue_pct {queue_pct} != postcard {postcard.queue_depth_pct}"
                )
            if config != postcard.config_id:
                report.mismatches.append(f"{tag}: config {config} != postcard {postcard.config_id}")
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
