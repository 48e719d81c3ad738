"""Work distribution over discovered resources (§6, challenge 1).

"It is an open problem how to discover programmable resources in the
network, distribute work to them, and coordinate their activity."

Given a converged :class:`~repro.controlplane.resourcemap.ResourceMap`,
a flow's path, and a :class:`FlowIntent` (what the experiment needs:
reliability, age budget, deadline, duplication), :func:`plan_flow`
decides *which element does what*:

- the **first** transition-capable element activates the entry mode
  (sequencing + recovery + age tracking);
- **every** buffer-capable element on the path hosts a retransmission
  buffer; elements between buffers refresh ``buffer_addr`` to the most
  recent one passed, and buffers chain NAK fallbacks upstream — the
  "more recent retransmission buffer" behaviour of §1;
- the **last** transition-capable element stamps the delivery deadline
  (like the pilot's U55C);
- the **last** duplication-capable element fans the stream out.

:func:`install_plan` then turns the plan into concrete dataplane
programs on the actual element objects. Modes that the intent needs
but the registry lacks are synthesized into free config-id slots —
the extensibility §4.2 calls for.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.features import AckScheme, Feature
from ..core.modes import Mode, ModeRegistry
from ..dataplane.element import ProgrammableElement
from ..dataplane.programs import (
    AgeUpdateProgram,
    BufferTapProgram,
    DuplicationProgram,
    ModeTransitionProgram,
    NearestBufferProgram,
    TransitionRule,
)
from .resourcemap import Capability, ResourceMap


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


def _find_or_create_mode(
    registry: ModeRegistry, features: Feature, name_hint: str
) -> Mode:
    """An existing mode with exactly these features, or a synthesized one."""
    for mode in registry:
        if mode.features == features:
            return mode
    for config_id in range(8, 256):
        if config_id not in registry:
            ack = (
                AckScheme.NAK_ONLY
                if features & Feature.RETRANSMISSION
                else AckScheme.NONE
            )
            return registry.register(
                Mode(
                    config_id=config_id,
                    name=f"{name_hint}-{config_id}",
                    features=features,
                    ack_scheme=ack,
                    description=f"Synthesized by placement for {name_hint}.",
                )
            )
    raise PlacementError("no free config-id slots for a synthesized mode")


def plan_flow(
    resource_map: ResourceMap,
    path: list[str],
    intent: FlowIntent,
    registry: ModeRegistry,
    buffer_bytes: int = 256 * 1024 * 1024,
) -> PlacementPlan:
    """Distribute the intent's work over the path's mapped resources."""
    on_path = [resource_map.get(node) for node in path]
    elements = [d for d in on_path if d is not None]
    if not elements:
        raise PlacementError("no programmable resources on the path")

    transition_capable = [d for d in elements if d.supports(Capability.MODE_TRANSITION)]
    entry_features = intent.entry_features()
    exit_features = intent.exit_features()
    if entry_features and not transition_capable:
        raise PlacementError("intent needs mode transitions but no element offers them")

    buffer_capable = [d for d in elements if d.supports(Capability.RETRANSMIT_BUFFER)]
    if intent.reliable and not buffer_capable:
        raise PlacementError("intent needs reliability but no element offers a buffer")
    if intent.duplicate_to and not any(
        d.supports(Capability.DUPLICATION) for d in elements
    ):
        raise PlacementError("intent needs duplication but no element offers it")
    if intent.deadline_offset_ns is not None and intent.notify_addr is None:
        raise PlacementError("a deadline needs a notify address")

    entry_mode = _find_or_create_mode(registry, entry_features, "entry")
    exit_mode = _find_or_create_mode(registry, exit_features, "exit")

    first_transition = transition_capable[0] if transition_capable else None
    last_transition = transition_capable[-1] if transition_capable else None
    duplication_site = next(
        (d for d in reversed(elements) if d.supports(Capability.DUPLICATION)), None
    ) if intent.duplicate_to else None

    plans: list[NodePlan] = []
    first_buffer = buffer_capable[0] if buffer_capable else None
    last_buffer_seen: str | None = None
    previous_buffer: str | None = None
    for descriptor in elements:
        plan = NodePlan(node=descriptor.node, address=descriptor.address)
        if intent.reliable and descriptor.supports(Capability.RETRANSMIT_BUFFER):
            wanted = min(buffer_bytes, descriptor.buffer_bytes)
            plan.host_buffer_bytes = wanted
            plan.nak_fallback_addr = previous_buffer
            previous_buffer = descriptor.address
            last_buffer_seen = descriptor.address
        if descriptor is first_transition and entry_features:
            plan.transition = TransitionRule(
                from_config_id=0,
                to_mode=entry_mode.name,
                buffer_addr=(first_buffer.address if first_buffer else None),
                age_budget_ns=intent.age_budget_ns,
                dup_group=intent.dup_group if intent.duplicate_to else None,
                dup_copies=1 if intent.duplicate_to else None,
            )
        if (
            descriptor is last_transition
            and exit_mode is not entry_mode
            and intent.deadline_offset_ns is not None
        ):
            plan.transition = TransitionRule(
                from_config_id=(
                    0 if descriptor is first_transition else entry_mode.config_id
                ),
                to_mode=exit_mode.name,
                buffer_addr=(first_buffer.address if first_buffer else None)
                if descriptor is first_transition
                else None,
                age_budget_ns=intent.age_budget_ns
                if descriptor is first_transition
                else None,
                deadline_offset_ns=intent.deadline_offset_ns,
                notify_addr=intent.notify_addr,
                dup_group=intent.dup_group
                if intent.duplicate_to and descriptor is first_transition
                else None,
                dup_copies=1
                if intent.duplicate_to and descriptor is first_transition
                else None,
            )
        if (
            intent.reliable
            and not plan.host_buffer_bytes
            and last_buffer_seen is not None
            and descriptor.supports(Capability.MODE_TRANSITION)
        ):
            plan.nearest_buffer_addr = last_buffer_seen
        if intent.age_budget_ns is not None and descriptor.supports(Capability.AGE_UPDATE):
            plan.age_update = True
        if duplication_site is descriptor:
            plan.duplication = {intent.dup_group: list(intent.duplicate_to)}
        plans.append(plan)

    return PlacementPlan(
        intent=intent, entry_mode=entry_mode, exit_mode=exit_mode, nodes=plans
    )


def install_plan(
    plan: PlacementPlan,
    elements: dict[str, ProgrammableElement],
    registry: ModeRegistry,
) -> None:
    """Realize a plan: configure programs on the actual elements."""
    for node_plan in plan.nodes:
        element = elements.get(node_plan.node)
        if element is None:
            raise PlacementError(f"element {node_plan.node!r} not provided")
        # Pipeline order matters: transitions first (they assign the
        # sequence numbers), then the buffer tap that mirrors by seq.
        if node_plan.transition is not None:
            ModeTransitionProgram(registry, [node_plan.transition]).install(element)
        if node_plan.host_buffer_bytes:
            element.attach_buffer(node_plan.host_buffer_bytes)
            element.nak_fallback_addr = node_plan.nak_fallback_addr
            BufferTapProgram(buffer_addr=element.ip).install(element)
        if node_plan.nearest_buffer_addr is not None:
            NearestBufferProgram(node_plan.nearest_buffer_addr).install(element)
        if node_plan.age_update:
            AgeUpdateProgram().install(element)
        if node_plan.duplication is not None:
            DuplicationProgram(node_plan.duplication).install(element)
