"""Resource map and work distribution (§6, challenge 1).

"It is an open problem how to discover programmable resources in the
network, distribute work to them, and coordinate their activity."

A :class:`ResourceDescriptor` is one element's self-description: where
it sits, what it can do, how much buffer it has. Descriptors merge into
a :class:`ResourceMap`, versioned per origin so re-advertisements
supersede (:mod:`repro.controlplane.bgp` shares maps across domains).
Given a map, a flow's path and a :class:`FlowIntent` (reliability, age
budget, deadline, duplication), :func:`plan_flow` decides *which element
does what*; an element's path position is its index in the path:

- the **first** transition-capable element activates the entry mode
  (sequencing + recovery + age tracking);
- **every** buffer-capable element on the path hosts a retransmission
  buffer, and buffers chain NAK fallbacks upstream — the "more recent
  retransmission buffer" behaviour of §1;
- the **first** transition-capable element without a buffer after each
  buffer refreshes ``buffer_addr`` to that buffer (the pilot's Tofino2,
  §5.4); elements further on leave the stamp alone;
- **every** age-capable element updates ages, given an age budget;
- the **last** transition-capable element stamps the delivery deadline
  (like the pilot's U55C);
- the **last** duplication-capable element fans the stream out.

:func:`install_plan` turns the plan into programs on the actual element
objects, in pipeline order: transition (it assigns the sequence
numbers), buffer tap (it mirrors by seq), age, nearest-buffer refresh,
duplication. Modes the intent needs but the registry lacks are
synthesized into free config-id slots (the extensibility of §4.2).
:func:`place` is both steps at once: every testbed wires its elements
with it, and no other module builds these programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

from ..core.features import AckScheme, Feature
from ..core.modes import Mode, ModeRegistry
from ..core.retransmit import BufferDirectory
from .element import ProgrammableElement
from .programs import (
    AgeUpdateProgram,
    BufferTapProgram,
    DuplicationProgram,
    ModeTransitionProgram,
    NearestBufferProgram,
    TransitionRule,
)


class Capability(str, Enum):
    """What a programmable element offers to DAQ transport."""

    MODE_TRANSITION = "mode-transition"
    RETRANSMIT_BUFFER = "retransmit-buffer"
    AGE_UPDATE = "age-update"
    DUPLICATION = "duplication"


#: What the testbeds' elements offer a flow: a smartNIC lending its HBM
#: as a retransmission buffer (the U280), a header-only smartNIC (the
#: U55C) and a switch pipeline (the Tofino2).
BUFFERING_NIC = frozenset(
    {Capability.MODE_TRANSITION, Capability.RETRANSMIT_BUFFER, Capability.AGE_UPDATE}
)
NIC = frozenset({Capability.MODE_TRANSITION, Capability.AGE_UPDATE})
SWITCH = NIC | {Capability.DUPLICATION}


@dataclass(frozen=True)
class ResourceDescriptor:
    """One element's advertised capabilities."""

    node: str
    domain: str
    address: str
    capabilities: frozenset[Capability]
    buffer_bytes: int = 0
    #: Monotone per-origin version; higher supersedes lower.
    version: int = 1

    def __post_init__(self) -> None:
        if not self.node or not self.domain:
            raise ValueError("node and domain are required")
        if Capability.RETRANSMIT_BUFFER in self.capabilities and self.buffer_bytes <= 0:
            raise ValueError(f"{self.node}: buffer capability without capacity")
        if self.version <= 0:
            raise ValueError("version must be positive")

    def supports(self, capability: Capability) -> bool:
        return capability in self.capabilities


@dataclass
class ResourceMap:
    """A converged view: node name → newest descriptor."""

    entries: dict[str, ResourceDescriptor] = field(default_factory=dict)

    def upsert(self, descriptor: ResourceDescriptor) -> bool:
        """Insert/refresh; returns True when the map changed."""
        current = self.entries.get(descriptor.node)
        if current is not None and current.version >= descriptor.version:
            return False
        self.entries[descriptor.node] = descriptor
        return True

    def get(self, node: str) -> ResourceDescriptor | None:
        return self.entries.get(node)

    def __len__(self) -> int:
        return len(self.entries)


class PlacementError(RuntimeError):
    """Raised when an intent cannot be satisfied by the mapped resources."""


@dataclass(frozen=True)
class FlowIntent:
    """What a DAQ flow needs from the network."""

    experiment_id: int
    reliable: bool = True
    age_budget_ns: int | None = None
    deadline_offset_ns: int | None = None
    notify_addr: str | None = None
    duplicate_to: tuple[str, ...] = ()
    dup_group: int = 1

    def entry_features(self) -> Feature:
        features = Feature.NONE
        if self.reliable:
            features |= Feature.SEQUENCED | Feature.RETRANSMISSION
        if self.age_budget_ns is not None:
            features |= Feature.AGE_TRACKING
        if self.duplicate_to:
            features |= Feature.SEQUENCED | Feature.DUPLICATION
        return features

    def exit_features(self) -> Feature:
        features = self.entry_features()
        if self.deadline_offset_ns is not None:
            features |= Feature.TIMELINESS
        return features


@dataclass
class NodePlan:
    """Everything one element is asked to do for the flow."""

    node: str
    address: str
    #: Index of the element in the flow's path (hops from its source).
    path_position: int
    transition: TransitionRule | None = None
    host_buffer_bytes: int = 0
    nak_fallback_addr: str | None = None
    nearest_buffer_addr: str | None = None
    age_update: bool = False
    duplication: dict[int, list[str]] | None = None


@dataclass
class PlacementPlan:
    """The full work distribution for one flow."""

    intent: FlowIntent
    entry_mode: Mode
    exit_mode: Mode
    nodes: list[NodePlan] = field(default_factory=list)


@dataclass
class ElementPrograms:
    """The programs :func:`install_plan` put on one element, in
    pipeline order (``None``: the plan asked for none of that kind)."""

    transition: ModeTransitionProgram | None = None
    tap: BufferTapProgram | None = None
    age: AgeUpdateProgram | None = None
    nearest: NearestBufferProgram | None = None
    duplication: DuplicationProgram | None = None


def _find_or_create_mode(registry: ModeRegistry, features: Feature, name_hint: str) -> Mode:
    """An existing mode with exactly these features, or a synthesized one."""
    for mode in registry:
        if mode.features == features:
            return mode
    free = next((i for i in range(8, 256) if i not in registry), None)
    if free is None:
        raise PlacementError("no free config-id slots for a synthesized mode")
    return registry.register(Mode(
        config_id=free,
        name=f"{name_hint}-{free}",
        features=features,
        ack_scheme=AckScheme.NAK_ONLY if features & Feature.RETRANSMISSION else AckScheme.NONE,
        description=f"Synthesized by placement for {name_hint}.",
    ))


def plan_flow(
    resource_map: ResourceMap,
    path: list[str],
    intent: FlowIntent,
    registry: ModeRegistry,
    buffer_bytes: int = 256 * 1024 * 1024,
) -> PlacementPlan:
    """Distribute the intent's work over the path's mapped resources."""
    elements = [
        (position, descriptor)
        for position, descriptor in enumerate(map(resource_map.get, path))
        if descriptor is not None
    ]
    if not elements:
        raise PlacementError("no programmable resources on the path")

    def offering(capability: Capability) -> list[ResourceDescriptor]:
        return [d for _, d in elements if d.supports(capability)]

    transitions = offering(Capability.MODE_TRANSITION)
    buffers = offering(Capability.RETRANSMIT_BUFFER)
    duplicators = offering(Capability.DUPLICATION)
    entry_features = intent.entry_features()
    if entry_features and not transitions:
        raise PlacementError("intent needs mode transitions but no element offers them")
    if intent.reliable and not buffers:
        raise PlacementError("intent needs reliability but no element offers a buffer")
    if intent.duplicate_to and not duplicators:
        raise PlacementError("intent needs duplication but no element offers it")
    if intent.deadline_offset_ns is not None and intent.notify_addr is None:
        raise PlacementError("a deadline needs a notify address")

    entry_mode = _find_or_create_mode(registry, entry_features, "entry")
    exit_mode = _find_or_create_mode(registry, intent.exit_features(), "exit")
    entry_rule = TransitionRule(
        from_config_id=0,
        to_mode=entry_mode.name,
        buffer_addr=buffers[0].address if buffers else None,
        age_budget_ns=intent.age_budget_ns,
        dup_group=intent.dup_group if intent.duplicate_to else None,
        dup_copies=1 if intent.duplicate_to else None,
    ) if entry_features else None
    first_transition, last_transition = (
        (transitions[0], transitions[-1]) if transitions else (None, None)
    )
    duplication_site = duplicators[-1] if intent.duplicate_to else None

    plans: list[NodePlan] = []
    previous_buffer: str | None = None
    refresh_owed = False  # the last buffer passed awaits its nearest-buffer refresh
    for position, descriptor in elements:
        plan = NodePlan(descriptor.node, descriptor.address, position)
        if intent.reliable and descriptor.supports(Capability.RETRANSMIT_BUFFER):
            plan.host_buffer_bytes = min(buffer_bytes, descriptor.buffer_bytes)
            plan.nak_fallback_addr = previous_buffer
            previous_buffer, refresh_owed = descriptor.address, True
        elif refresh_owed and descriptor.supports(Capability.MODE_TRANSITION):
            plan.nearest_buffer_addr, refresh_owed = previous_buffer, False
        if descriptor is first_transition:
            plan.transition = entry_rule
        if descriptor is last_transition and intent.deadline_offset_ns is not None:
            # The deadline activates here: from the entry mode, or straight
            # from mode 0 when this element is also the entry.
            plan.transition = replace(
                plan.transition or TransitionRule(entry_mode.config_id, exit_mode.name),
                to_mode=exit_mode.name,
                deadline_offset_ns=intent.deadline_offset_ns,
                notify_addr=intent.notify_addr,
            )
        plan.age_update = (
            intent.age_budget_ns is not None and descriptor.supports(Capability.AGE_UPDATE)
        )
        if descriptor is duplication_site:
            plan.duplication = {intent.dup_group: list(intent.duplicate_to)}
        plans.append(plan)
    return PlacementPlan(intent, entry_mode, exit_mode, plans)


def install_plan(
    plan: PlacementPlan,
    elements: dict[str, ProgrammableElement],
    registry: ModeRegistry,
    directory: BufferDirectory | None = None,
) -> dict[str, ElementPrograms]:
    """Realize a plan: configure programs on the actual elements.

    Without a ``directory`` the nearest buffer is the plan's static
    address. With one, every hosted buffer registers in it at its path
    position, and the transition that names a buffer and the
    nearest-buffer refresh stamp the nearest *live* buffer per packet
    instead — with no static fallback, so a dead buffer is never
    re-stamped. Returns each planned element's programs by node name.
    """
    installed: dict[str, ElementPrograms] = {}
    for node_plan in plan.nodes:
        element = elements.get(node_plan.node)
        if element is None:
            raise PlacementError(f"element {node_plan.node!r} not provided")
        position, rule = node_plan.path_position, node_plan.transition
        programs = installed[node_plan.node] = ElementPrograms()
        if rule is not None:
            live = directory if rule.buffer_addr is not None else None
            programs.transition = ModeTransitionProgram(
                registry, [rule], directory=live, path_position=position
            )
        if node_plan.host_buffer_bytes:
            element.attach_buffer(node_plan.host_buffer_bytes)
            element.nak_fallback_addr = node_plan.nak_fallback_addr
            if directory is not None:
                directory.register(element.ip, position, {plan.intent.experiment_id})
            programs.tap = BufferTapProgram(buffer_addr=element.ip)
        if node_plan.age_update:
            programs.age = AgeUpdateProgram()
        if node_plan.nearest_buffer_addr is not None:
            static = node_plan.nearest_buffer_addr if directory is None else None
            programs.nearest = NearestBufferProgram(static, directory, position)
        if node_plan.duplication is not None:
            programs.duplication = DuplicationProgram(node_plan.duplication)
        for program in vars(programs).values():
            if program is not None:
                program.install(element)
    return installed


def place(
    path: list,
    offers: dict[ProgrammableElement, frozenset[Capability]],
    intent: FlowIntent,
    registry: ModeRegistry,
    buffer_bytes: int,
    directory: BufferDirectory | None = None,
) -> dict[str, ElementPrograms]:
    """Plan ``intent`` over ``path`` (its nodes, in order) and install it.

    ``offers`` maps each programmable element on the path to what it
    offers the flow; a buffer offer is all of the element's HBM, of
    which the flow takes ``buffer_bytes``.
    """
    resource_map = ResourceMap({
        element.name: ResourceDescriptor(
            element.name, "local", element.ip, capabilities,
            element.hbm_bytes if Capability.RETRANSMIT_BUFFER in capabilities else 0,
        )
        for element, capabilities in offers.items()
    })
    plan = plan_flow(resource_map, [node.name for node in path], intent, registry, buffer_bytes)
    return install_plan(plan, {element.name: element for element in offers}, registry, directory)
