"""Control plane for multi-modal transport (§6, challenge 1).

Resource discovery and work distribution: elements advertise their
capabilities into a :class:`ResourceMap`; :class:`MapSpeaker` s share
maps across operator domains (the paper's piggy-back-on-BGP idea);
:func:`plan_flow` distributes a flow's required features over the
discovered resources and :func:`install_plan` realizes the result as
dataplane programs. The map and the planner live in
:mod:`repro.dataplane.placement`, which wires every testbed; this
package adds their distribution across domains.
"""

from ..dataplane.placement import (
    Capability,
    FlowIntent,
    NodePlan,
    PlacementError,
    PlacementPlan,
    ResourceDescriptor,
    ResourceMap,
    install_plan,
    plan_flow,
)
from .bgp import MapSpeaker, MapUpdate, converge

__all__ = [
    "Capability",
    "FlowIntent",
    "MapSpeaker",
    "MapUpdate",
    "NodePlan",
    "PlacementError",
    "PlacementPlan",
    "ResourceDescriptor",
    "ResourceMap",
    "converge",
    "install_plan",
    "plan_flow",
]
