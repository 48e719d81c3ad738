"""Modes: named feature combinations, and mode transitions.

A **mode** is the paper's unit of multi-modality: "a combination of
features [that] are activated and configured" (§5). The 8-bit
configuration id in the core header names a mode; the configuration
data carries its feature bits. On-path network elements *transition* a
packet between modes by rewriting the header (§5.3), which is what
:func:`transition` implements — it is deliberately pure header surgery
so the dataplane models can execute it under P4-like constraints.

:func:`pilot_registry` builds the three-mode setup of the pilot study
(§5.4):

- mode 0 — *identify*: experiment/slice identification only; works
  directly over L2; no reliability (sensor → DTN 1).
- mode 1 — *age-recover*: sequenced, loss-recoverable from an on-path
  buffer, age-tracked (DTN 1 → DTN 2).
- mode 2 — *deliver-check*: timeliness check at the destination.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .features import BITS, AckScheme, Feature
from .header import (
    _CODECS,
    _EXT_MASK,
    FEATURE_FIELDS,
    LAYOUT,
    HeaderError,
    MmtHeader,
    fields_by_feature,
)


class ModeError(ValueError):
    """Raised for unknown modes or invalid transitions."""


@dataclass(frozen=True)
class Mode:
    """An immutable mode definition."""

    config_id: int
    name: str
    features: Feature
    ack_scheme: AckScheme = AckScheme.NONE
    description: str = ""

    def __post_init__(self) -> None:
        if not 0 <= self.config_id <= 0xFF:
            raise ModeError(f"config_id out of range: {self.config_id}")
        if (self.features & Feature.RETRANSMISSION) and not (
            self.features & Feature.SEQUENCED
        ):
            raise ModeError(f"mode {self.name!r}: RETRANSMISSION requires SEQUENCED")

    def has(self, feature: Feature) -> bool:
        # Plain-int bitwise test on both sides; with an IntFlag operand
        # the and dispatches to Feature.__and__/__rand__ (hot-path cost).
        return bool(int(self.features) & int(feature))


@dataclass
class TransitionContext:
    """Values an element supplies when activating features.

    Only the fields needed by the *newly activated* features of the
    target mode must be set; :func:`transition` raises otherwise.
    """

    now_ns: int = 0
    #: Where NAKs should be sent (the nearest upstream buffer, §5.3).
    buffer_addr: str | None = None
    #: Absolute delivery deadline and where to report misses.
    deadline_ns: int | None = None
    notify_addr: str | None = None
    #: Age budget for AGE_TRACKING (ns of allowed in-network time).
    age_budget_ns: int | None = None
    #: Pacing rate for PACING.
    pace_rate_mbps: int | None = None
    #: Where backpressure signals should go (usually the source).
    source_addr: str | None = None
    #: Duplication group/copy-count for DUPLICATION.
    dup_group: int | None = None
    dup_copies: int | None = None
    #: Sequence number to stamp when SEQUENCED is newly activated
    #: (elements keep a per-flow counter; see dataplane programs).
    seq: int | None = None


class ModeRegistry:
    """Mapping of configuration id → :class:`Mode`."""

    def __init__(self) -> None:
        self._by_id: dict[int, Mode] = {}
        self._by_name: dict[str, Mode] = {}

    def register(self, mode: Mode) -> Mode:
        if mode.config_id in self._by_id:
            raise ModeError(f"config_id {mode.config_id} already registered")
        if mode.name in self._by_name:
            raise ModeError(f"mode name {mode.name!r} already registered")
        self._by_id[mode.config_id] = mode
        self._by_name[mode.name] = mode
        return mode

    def by_name(self, name: str) -> Mode:
        mode = self._by_name.get(name)
        if mode is None:
            raise ModeError(f"unknown mode {name!r}")
        return mode

    def __contains__(self, config_id: int) -> bool:
        return config_id in self._by_id

    def __iter__(self):
        return iter(self._by_id.values())

    def __len__(self) -> int:
        return len(self._by_id)


def pilot_registry() -> ModeRegistry:
    """The three-mode setup of the pilot study (§5.4)."""
    registry = ModeRegistry()
    registry.register(
        Mode(
            config_id=0,
            name="identify",
            features=Feature.NONE,
            description="Experiment identification only; unreliable; works on raw L2.",
        )
    )
    registry.register(
        Mode(
            config_id=1,
            name="age-recover",
            features=(
                Feature.SEQUENCED | Feature.RETRANSMISSION | Feature.AGE_TRACKING
            ),
            ack_scheme=AckScheme.NAK_ONLY,
            description=(
                "Age-sensitive, recoverable-loss transport: elements add "
                "sequence numbers, track age, and point NAKs at the nearest "
                "upstream buffer."
            ),
        )
    )
    registry.register(
        Mode(
            config_id=2,
            name="deliver-check",
            features=(
                Feature.SEQUENCED
                | Feature.RETRANSMISSION
                | Feature.AGE_TRACKING
                | Feature.TIMELINESS
            ),
            ack_scheme=AckScheme.NAK_ONLY,
            description="Adds an explicit delivery deadline checked at the destination.",
        )
    )
    return registry


def extended_registry() -> ModeRegistry:
    """Pilot modes plus the optional feature modes discussed in §5/§6."""
    registry = pilot_registry()
    registry.register(
        Mode(
            config_id=3,
            name="paced",
            features=Feature.SEQUENCED | Feature.RETRANSMISSION | Feature.PACING,
            ack_scheme=AckScheme.NAK_ONLY,
            description="Reliable transfer paced at an explicit rate (no CC).",
        )
    )
    registry.register(
        Mode(
            config_id=4,
            name="backpressured",
            features=(
                Feature.SEQUENCED
                | Feature.RETRANSMISSION
                | Feature.PACING
                | Feature.BACKPRESSURE
            ),
            ack_scheme=AckScheme.NAK_ONLY,
            description="Paced + downstream elements may signal the source to slow.",
        )
    )
    registry.register(
        Mode(
            config_id=5,
            name="fanout",
            features=(
                Feature.SEQUENCED
                | Feature.RETRANSMISSION
                | Feature.AGE_TRACKING
                | Feature.DUPLICATION
            ),
            ack_scheme=AckScheme.NAK_ONLY,
            description=(
                "In-network duplication to several consumers (alerts, §5.1); "
                "each copy keeps the nearest-buffer pointer so any consumer "
                "can recover losses."
            ),
        )
    )
    registry.register(
        Mode(
            config_id=6,
            name="secure-identify",
            features=Feature.ENCRYPTED,
            description="Identification-only with third-party payload encryption.",
        )
    )
    return registry


#: Feature → the fields a rewrite activating it takes from the context.
_REQUIRED_CONTEXT = fields_by_feature(row for row in LAYOUT if row.from_context)


@lru_cache(maxsize=4096)
def _rewrite_plan(old_bits: int, target_bits: int) -> tuple:
    """What rewriting a header whose feature word is ``old_bits`` into a
    mode whose word is ``target_bits`` comes to.

    The two words settle it, and a deployment sees a handful of pairs,
    so it is worked out once per pair, not per packet:

    - ``required``: ``(field, feature name)`` for every value a newly
      activated feature takes from the context — each initialises the
      header field of the same name;
    - ``stamped``: ``(header field, constant)`` — fields of deactivated
      features back to ``None``, the age counter and ``aged`` reset;
    - ``features``: the new feature word (``FLOW_ID`` carried over);
    - ``refreshes_buffer``: the new mode has a NAK target to refresh;
    - ``resize``: the header's wire size after minus before, bytes.
    """
    new_bits = target_bits | (old_bits & BITS.FLOW_ID)
    activated = new_bits & ~old_bits
    deactivated = old_bits & ~new_bits
    required = tuple(
        (name, feature.name)
        for feature, names in _REQUIRED_CONTEXT.items()
        if activated & feature
        for name in names
    )
    stamped = [
        (name, None)
        for feature, names in FEATURE_FIELDS.items()
        if deactivated & feature
        for name in names
    ]
    if (activated | deactivated) & Feature.AGE_TRACKING:
        stamped.append(("aged", False))
    if activated & Feature.AGE_TRACKING:
        stamped.append(("age_ns", 0))
    resize = _CODECS[new_bits & _EXT_MASK].size - _CODECS[old_bits & _EXT_MASK].size
    return (required, tuple(stamped), Feature(new_bits), bool(new_bits & BITS.RETRANSMISSION),
            resize)


def transition(header: MmtHeader, target: Mode, ctx: TransitionContext) -> int:
    """Rewrite ``header`` in place into ``target`` mode; return how many
    bytes the header grew by (negative when it shrank). A packet applies
    it as ``packet.rewrite("mmt", transition, target, ctx)``, which moves
    its ``size_bytes`` by as much.

    Newly activated features get their extension fields initialized from
    ``ctx`` (missing values raise :class:`ModeError`); features carried
    over keep their current values — except the retransmission buffer
    address, which is always refreshed when ``ctx.buffer_addr`` is set,
    implementing the "more recent (lower RTT) retransmission buffer"
    behaviour of §1/§5. Deactivated features get their fields cleared.

    ``FLOW_ID`` is flow *identity*, not a per-segment feature: like
    ``experiment_id`` it survives every mode rewrite, so a header that
    arrives with a flow id keeps both the bit and the value regardless
    of the target mode's feature word.
    """
    required, stamped, features, refreshes_buffer, resize = _rewrite_plan(
        header.features._value_, target.features._value_
    )
    for name, feature_name in required:
        if getattr(ctx, name) is None:
            raise ModeError(
                f"transition to {target.name!r} activates {feature_name} "
                f"but ctx.{name} is unset"
            )
    for name, value in stamped:
        setattr(header, name, value)
    for name, _feature_name in required:
        setattr(header, name, getattr(ctx, name))
    # Refresh the NAK target to the nearest buffer when one is offered.
    if refreshes_buffer and ctx.buffer_addr is not None:
        header.buffer_addr = ctx.buffer_addr

    header.config_id = target.config_id
    header.features = features
    header.ack_scheme = target.ack_scheme
    try:
        header.validate()
    except HeaderError as exc:
        raise ModeError(f"transition produced invalid header: {exc}") from exc
    return resize
