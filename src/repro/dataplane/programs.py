"""The MMT dataplane programs (§5.3-§5.4), as installable pipelines.

Each program configures tables, actions, and registers on an element's
pipeline — the same division of labour as P4: the *program* defines
processing, the *control plane* (here: the program's constructor
arguments, supplied by a scenario builder) populates table entries.

Programs:

- :class:`ModeTransitionProgram` — rewrites headers between modes as
  flows cross segment boundaries; assigns sequence numbers from a
  register when SEQUENCED activates in-network ("Network elements add
  a sequence number to loss-recoverable streams", §5.4).
- :class:`AgeUpdateProgram` — updates ``age``/``aged`` (§5.4) and can
  raise the DSCP of age-sensitive traffic (priority as it travels,
  §5.3).
- :class:`BufferTapProgram` — mirrors sequenced data into the hosting
  element's retransmission buffer and names it as the nearest buffer.
- :class:`NearestBufferProgram` — refreshes ``buffer_addr`` only (for
  elements that point at a buffer hosted elsewhere, e.g. Tofino → DTN 1).
- :class:`DeadlineEnforceProgram` — sheds already-late packets and
  reports misses from within the network.
- :class:`DuplicationProgram` — in-network stream duplication to
  several downstream consumers (§5.1).
- :class:`BackpressureProgram` — relays congestion backpressure to the
  source when the local queue runs hot (§5.1), rate-limited through a
  register.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.aging import AGE_EPOCH_META
from ..core.control import (
    BackpressurePayload,
    DeadlineMissPayload,
    ModeAnnouncePayload,
    control_message,
)
from ..core.features import BITS, Feature, MsgType
from ..core.modes import Mode, ModeRegistry, TransitionContext, transition
from ..core.retransmit import BufferDirectory
from .element import ProgrammableElement
from .pipeline import Action, Metadata, MatchKind, PacketView, Table, flow_register_index


class Program:
    """Base: a program installs itself onto an element's pipeline."""

    def install(self, element: ProgrammableElement) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Mode transitions
# ---------------------------------------------------------------------------


@dataclass
class TransitionRule:
    """One control-plane entry for the mode-transition table.

    Matches packets arriving in mode ``from_config_id`` (optionally only
    on ``ingress_port``) and rewrites them into ``to_mode``. The value
    fields configure features the target mode *activates*.
    """

    from_config_id: int
    to_mode: str
    ingress_port: str | None = None
    buffer_addr: str | None = None
    age_budget_ns: int | None = None
    deadline_offset_ns: int | None = None
    notify_addr: str | None = None
    pace_rate_mbps: int | None = None
    source_addr: str | None = None
    dup_group: int | None = None
    dup_copies: int | None = None


class ModeTransitionProgram(Program):
    """Header rewriting between modes at segment boundaries.

    Sequence numbers for newly-SEQUENCED flows come from a per-flow
    register indexed by a hash of ``(experiment id, flow id)`` — exactly
    the stateful primitive Tofino provides. Concurrent flows of one
    experiment therefore draw from independent sequence counters and
    degrade/recover independently.

    With ``announce_to_source=True`` the element tells the stream's
    source about each flow's first transition (one MODE_ANNOUNCE per
    flow, register-deduplicated) — the §4.2 control messaging that lets
    endpoints reason about end-to-end behaviour hop by hop.
    """

    SEQ_REGISTER_SIZE = 65536

    def __init__(
        self,
        registry: ModeRegistry,
        rules: list[TransitionRule],
        announce_to_source: bool = False,
        directory: BufferDirectory | None = None,
        path_position: int = 0,
    ) -> None:
        self.registry = registry
        self.rules = rules
        self.announce_to_source = announce_to_source
        #: Optional live buffer map: when set, transitions into
        #: RETRANSMISSION modes resolve ``buffer_addr`` through the
        #: directory; with no live buffer the transition is *skipped* —
        #: the packet continues in its current (lesser) mode rather
        #: than advertising a dead NAK target (graceful degradation).
        self.directory = directory
        self.path_position = path_position
        self.transitions_applied = 0
        self.announcements_sent = 0
        #: Packets that stayed un-upgraded because no live buffer served
        #: their experiment, and the per-flow degradation episodes.
        self.degraded_packets = 0
        self.degradations = 0
        self.degradation_recoveries = 0
        #: Control-plane rewrites of the installed table (mid-flow
        #: shape-shifting via :meth:`replace_rules`).
        self.rewrites = 0
        self._degraded_flows: set[tuple[int, int]] = set()
        self._announced: set[tuple[int, int]] = set()
        self._element_ip = "0.0.0.0"
        self._element: ProgrammableElement | None = None
        self._table: Table | None = None
        self._action: Action | None = None

    def install(self, element: ProgrammableElement) -> None:
        pipeline = element.pipeline
        self._element_ip = element.ip or "0.0.0.0"
        self._element = element
        seq_register = pipeline.add_register(
            "mode_transition_seq", self.SEQ_REGISTER_SIZE, width_bits=32
        )
        table = Table(
            "mode_transition",
            keys=["meta.ingress_port", "mmt.config_id"],
            match_kinds=[MatchKind.EXACT, MatchKind.EXACT],
        )
        action = Action("transition_mode", self._make_action(seq_register))
        self._table = table
        self._action = action
        self._populate(table, action, self.rules)
        pipeline.add_table(table)

    def _populate(
        self, table: Table, action: Action, rules: list[TransitionRule]
    ) -> None:
        for rule in rules:
            target = self.registry.by_name(rule.to_mode)
            table.add_entry(
                (rule.ingress_port, rule.from_config_id),
                action,
                params={"rule": rule, "target": target},
                priority=1 if rule.ingress_port is not None else 0,
            )

    def replace_rules(self, rules: list[TransitionRule]) -> int:
        """Control-plane rewrite of the mode map, mid-flow.

        The installed table's entries are swapped for ``rules`` — the
        path-migration event where a segment starts shifting streams
        into a different shape. The table object, its action closure,
        and the per-flow sequence register all carry over, so a flow
        whose rewritten rule still sequences it continues its numbering
        uninterrupted and in-flight retransmit state stays valid.

        Unknown target modes raise before anything is touched (an
        atomic rewrite: the old map stays in force on failure). Returns
        the number of installed rules.
        """
        table, action = self._table, self._action
        if table is None or action is None:
            raise RuntimeError("program not installed; nothing to rewrite")
        for rule in rules:
            self.registry.by_name(rule.to_mode)  # validate before mutating
        table.clear()
        self._populate(table, action, rules)
        self.rules = list(rules)
        self.rewrites += 1
        element = self._element
        if element is not None and element.tracer is not None:
            element.tracer.emit(
                "mode.rewrite", element.name, rules=len(rules)
            )
        return len(rules)

    def _make_action(self, seq_register):
        def transition_mode(view: PacketView, meta: Metadata, params: dict) -> None:
            header = view.mmt()
            if header.msg_type != MsgType.DATA:
                return
            rule: TransitionRule = params["rule"]
            target: Mode = params["target"]
            ctx = TransitionContext(now_ns=meta.now_ns)
            # Plain ints (as BITS is): IntFlag &/~ would re-wrap every
            # result through the enum machinery on this per-packet path.
            target_bits = int(target.features)
            activating = target_bits & ~int(header.features)
            if self.directory is not None and target_bits & BITS.RETRANSMISSION:
                live = self.directory.failover_for(
                    header.experiment_id, self.path_position
                )
                if live is None:
                    # No live buffer anywhere: leave the packet in its
                    # current mode instead of upgrading it into a
                    # reliability mode whose NAKs can never be served.
                    self.degraded_packets += 1
                    if header.flow_key not in self._degraded_flows:
                        self._degraded_flows.add(header.flow_key)
                        self.degradations += 1
                    element = self._element
                    if element is not None and element.tracer is not None:
                        element.tracer.emit(
                            "mode.skip", element.name,
                            header.experiment_id, header.flow_id or 0, header.seq,
                            reason="no_live_buffer",
                            from_config=rule.from_config_id,
                        )
                    return
                if header.flow_key in self._degraded_flows:
                    self._degraded_flows.discard(header.flow_key)
                    self.degradation_recoveries += 1
                ctx.buffer_addr = live.address
            if activating & BITS.SEQUENCED:
                index = flow_register_index(
                    header.experiment_id, header.flow_id or 0, seq_register.size
                )
                ctx.seq = seq_register.read_add(index, 1)
            if rule.buffer_addr is not None and ctx.buffer_addr is None:
                ctx.buffer_addr = rule.buffer_addr
            if activating & BITS.TIMELINESS:
                ctx.deadline_ns = meta.now_ns + (rule.deadline_offset_ns or 0)
                ctx.notify_addr = rule.notify_addr
            if activating & BITS.AGE_TRACKING:
                ctx.age_budget_ns = rule.age_budget_ns
            ctx.pace_rate_mbps = rule.pace_rate_mbps
            ctx.source_addr = rule.source_addr
            ctx.dup_group = rule.dup_group
            ctx.dup_copies = rule.dup_copies
            transition(header, target, ctx)
            if activating & BITS.AGE_TRACKING:
                view.sim_stamp(AGE_EPOCH_META, meta.now_ns)
            self.transitions_applied += 1
            element = self._element
            if element is not None and element.tracer is not None:
                # header.seq is final here (assigned above for flows the
                # rule sequenced), so this is the identity's birth event.
                element.tracer.emit(
                    "mode.transition", element.name,
                    header.experiment_id, header.flow_id or 0, header.seq,
                    from_config=rule.from_config_id, to_config=target.config_id,
                )
            if (
                self.announce_to_source
                and header.flow_key not in self._announced
                and view.has_header("ip")
            ):
                self._announced.add(header.flow_key)
                announce = ModeAnnouncePayload(
                    config_id=target.config_id, element=self._element_ip, at_ns=meta.now_ns
                )
                meta.emit(view.get("ip.src"), *control_message(
                    MsgType.MODE_ANNOUNCE, announce, header.experiment_id, target.config_id
                ))
                self.announcements_sent += 1

        return transition_mode


# ---------------------------------------------------------------------------
# Aging
# ---------------------------------------------------------------------------


class AgeUpdateProgram(Program):
    """Fixed-function stage updating age and (optionally) priority.

    "An element updates an 'age' field, and it additionally updates an
    'aged' flag if a maximum age threshold was exceeded by the time the
    packet reached that network element." (§5.4)
    """

    def __init__(self, prioritize_dscp: int | None = 46) -> None:
        #: DSCP applied to age-tracked traffic (EF by default) so queues
        #: can prioritize age-sensitive data; None disables remarking.
        self.prioritize_dscp = prioritize_dscp
        self.updates = 0
        self.newly_aged = 0
        self._element: ProgrammableElement | None = None

    def install(self, element: ProgrammableElement) -> None:
        self._element = element
        table = Table(
            "age_update",
            keys=[],
            default_action=Action("age_update", self._action),
        )
        element.pipeline.add_table(table)

    def _action(self, view: PacketView, meta: Metadata, _params: dict) -> None:
        header = view.mmt()
        if not header.has(Feature.AGE_TRACKING):
            return
        epoch = view.sim_read(AGE_EPOCH_META)
        if epoch is None:
            return
        age = meta.now_ns - epoch
        if age < header.age_ns:
            return
        header.age_ns = age
        self.updates += 1
        if not header.aged and age > header.age_budget_ns:
            header.aged = True
            self.newly_aged += 1
            element = self._element
            if element is not None and element.tracer is not None:
                element.tracer.emit(
                    "age.aged", element.name,
                    header.experiment_id, header.flow_id or 0, header.seq,
                    age_ns=age, budget_ns=header.age_budget_ns,
                )
        if self.prioritize_dscp is not None and view.has_header("ip"):
            view.set("ip.dscp", self.prioritize_dscp)


# ---------------------------------------------------------------------------
# Buffers
# ---------------------------------------------------------------------------


class BufferTapProgram(Program):
    """Mirror sequenced data into the local buffer and advertise it.

    Installed on elements that host a retransmission buffer (DTN-side
    smartNICs in the pilot). Every sequenced DATA packet is mirrored to
    the buffer engine and the header's ``buffer_addr`` is rewritten to
    this element — it is now the nearest recovery point (§5.3).
    """

    def __init__(self, buffer_addr: str, advertise: bool = True) -> None:
        self.buffer_addr = buffer_addr
        #: ``False`` makes this a silent tap: packets are mirrored into
        #: the buffer but ``buffer_addr`` is left alone — how a failover
        #: buffer shadows a stream without hijacking its NAK target.
        self.advertise = advertise
        self._element: ProgrammableElement | None = None

    def install(self, element: ProgrammableElement) -> None:
        self._element = element
        table = Table(
            "buffer_tap",
            keys=[],
            default_action=Action("buffer_tap", self._action),
        )
        element.pipeline.add_table(table)

    def _action(self, view: PacketView, meta: Metadata, _params: dict) -> None:
        header = view.mmt()
        if not header.has(Feature.SEQUENCED):
            return
        if header.msg_type != MsgType.DATA:
            return
        buffer = self._element.buffer if self._element is not None else None
        if buffer is not None and buffer.failed:
            return  # dead buffers neither cache nor advertise
        meta.mirror_to_buffer = True
        if self.advertise and header.has(Feature.RETRANSMISSION):
            header.buffer_addr = self.buffer_addr


class NearestBufferProgram(Program):
    """Refresh ``buffer_addr`` to a (remote) nearer buffer.

    For elements that do not host storage themselves but know — from
    the resource map — of a buffer closer to the receiver than whatever
    the header currently names ("identify DTN 1 as the nearest buffer",
    §5.4).

    Two control planes are supported. A static ``buffer_addr`` is the
    original pre-supposed wiring. Passing a :class:`BufferDirectory`
    plus this element's ``path_position`` makes the stamp *live*: each
    packet gets the nearest live buffer, so when a buffer dies mid-flow
    the directory's ``mark_down`` makes this element re-stamp flows to
    the next-nearest live one (buffer failover). With neither a live
    candidate nor a static fallback the header is left untouched.
    """

    def __init__(
        self,
        buffer_addr: str | None = None,
        directory: BufferDirectory | None = None,
        path_position: int = 0,
    ) -> None:
        if buffer_addr is None and directory is None:
            raise ValueError("need a static buffer_addr or a directory")
        self.buffer_addr = buffer_addr
        self.directory = directory
        self.path_position = path_position
        self.rewrites = 0
        #: Directory answers that *changed* mid-run (observable failover).
        self.failovers = 0
        #: Packets left pointing at their (possibly dead) old buffer
        #: because no live candidate existed.
        self.stale_stamps = 0
        #: Last stamped address per (experiment, flow): with a single
        #: shared cell, interleaved flows whose answers legitimately
        #: differ would each read the *other* flow's last stamp and
        #: count a phantom failover per packet.
        self._last_addr: dict[tuple[int, int], str] = {}
        self._element: ProgrammableElement | None = None

    def install(self, element: ProgrammableElement) -> None:
        self._element = element
        table = Table(
            "nearest_buffer",
            keys=[],
            default_action=Action("nearest_buffer", self._action),
        )
        element.pipeline.add_table(table)

    def _resolve(self, experiment_id: int) -> str | None:
        if self.directory is None:
            return self.buffer_addr
        live = self.directory.failover_for(experiment_id, self.path_position)
        if live is None:
            return self.buffer_addr if self.buffer_addr is not None else None
        return live.address

    def _action(self, view: PacketView, _meta: Metadata, _params: dict) -> None:
        header = view.mmt()
        if not header.has(Feature.RETRANSMISSION):
            return
        if header.msg_type not in (MsgType.DATA, MsgType.HEARTBEAT):
            return
        addr = self._resolve(header.experiment_id)
        if addr is None:
            self.stale_stamps += 1
            return
        flow_key = header.flow_key
        last = self._last_addr.get(flow_key)
        element = self._element
        if last is not None and addr != last:
            self.failovers += 1
            if element is not None and element.tracer is not None:
                element.tracer.emit(
                    "buffer.failover", element.name,
                    header.experiment_id, header.flow_id or 0, header.seq,
                    old=last, new=addr,
                )
        self._last_addr[flow_key] = addr
        if header.buffer_addr != addr:
            if element is not None and element.tracer is not None:
                element.tracer.emit(
                    "buffer.restamp", element.name,
                    header.experiment_id, header.flow_id or 0, header.seq,
                    old=header.buffer_addr, new=addr,
                )
            header.buffer_addr = addr
            self.rewrites += 1


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------


class DeadlineEnforceProgram(Program):
    """Shed packets that already missed their deadline; report misses.

    Explicit transport deadlines "provide a signal for congestion and
    an input to active queue management" (§5.3): data that is already
    late is not worth WAN capacity, so it is dropped here, and a miss
    report is generated toward the flow's notify address.
    """

    def __init__(self, report: bool = True) -> None:
        self.report = report
        self.dropped_late = 0

    def install(self, element: ProgrammableElement) -> None:
        table = Table(
            "deadline_enforce",
            keys=[],
            default_action=Action("deadline_enforce", self._action),
        )
        element.pipeline.add_table(table)

    def _action(self, view: PacketView, meta: Metadata, _params: dict) -> None:
        header = view.mmt()
        if not header.has(Feature.TIMELINESS) or header.msg_type != MsgType.DATA:
            return
        if meta.now_ns <= header.deadline_ns:
            return
        meta.mark_to_drop()
        self.dropped_late += 1
        if self.report and header.notify_addr:
            report = DeadlineMissPayload(
                seq=header.seq or 0,
                deadline_ns=header.deadline_ns,
                observed_ns=meta.now_ns,
                experiment_id=header.experiment_id,
            )
            meta.emit(header.notify_addr, *control_message(
                MsgType.DEADLINE_MISS, report, header.experiment_id, header.config_id
            ))


# ---------------------------------------------------------------------------
# Duplication
# ---------------------------------------------------------------------------


class DuplicationProgram(Program):
    """In-network duplication: dup_group → additional destinations.

    "Streams can be duplicated in the network to reach several
    downstream researchers directly, ensuring that they get rapid
    access to fresh data." (§5.1)
    """

    def __init__(self, groups: dict[int, list[str]]) -> None:
        self.groups = groups
        self.duplicated = 0

    def install(self, element: ProgrammableElement) -> None:
        table = Table(
            "duplication",
            keys=["mmt.dup_group"],
        )
        action = Action("duplicate", self._action)
        for group, destinations in self.groups.items():
            table.add_entry((group,), action, params={"destinations": destinations})
        element.pipeline.add_table(table)

    def _action(self, view: PacketView, meta: Metadata, params: dict) -> None:
        header = view.mmt()
        if not header.has(Feature.DUPLICATION) or header.msg_type != MsgType.DATA:
            return
        destinations: list[str] = params["destinations"]
        for dst in destinations:
            meta.clone_to(dst)
        header.dup_copies = 1 + len(destinations)
        self.duplicated += 1


# ---------------------------------------------------------------------------
# Backpressure
# ---------------------------------------------------------------------------


class BackpressureProgram(Program):
    """Relay backpressure to the source when local queues run hot (§5.1).

    A register holds the last emission timestamp so signals are
    rate-limited (one per ``min_interval_ns``), the same
    register-guarded pattern used for congestion notification on real
    programmable hardware.
    """

    def __init__(
        self,
        occupancy_threshold_pct: int = 60,
        advised_rate_mbps: int = 1000,
        min_interval_ns: int = 1_000_000,
    ) -> None:
        self.occupancy_threshold_pct = occupancy_threshold_pct
        self.advised_rate_mbps = advised_rate_mbps
        self.min_interval_ns = min_interval_ns
        self.signals_sent = 0
        self._register = None

    def install(self, element: ProgrammableElement) -> None:
        self._register = element.pipeline.add_register(
            "backpressure_last_ns", 1, width_bits=64
        )
        table = Table(
            "backpressure",
            keys=["meta.queue_occupancy_pct"],
            match_kinds=[MatchKind.RANGE],
        )
        table.add_entry(
            ((self.occupancy_threshold_pct, 100),),
            Action("gen_backpressure", self._action),
            params={"origin": element.ip or "0.0.0.0"},
        )
        element.pipeline.add_table(table)

    def _action(self, view: PacketView, meta: Metadata, params: dict) -> None:
        header = view.mmt()
        if not header.has(Feature.BACKPRESSURE) or header.msg_type != MsgType.DATA:
            return
        last = self._register.read(0)
        if meta.now_ns - last < self.min_interval_ns:
            return
        self._register.write(0, meta.now_ns)
        signal = BackpressurePayload(
            advised_rate_mbps=self.advised_rate_mbps, origin=params["origin"], severity=1
        )
        meta.emit(header.source_addr, *control_message(
            MsgType.BACKPRESSURE, signal, header.experiment_id, header.config_id
        ))
        self.signals_sent += 1
