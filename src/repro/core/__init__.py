"""The paper's primary contribution: the multi-modal DAQ transport (MMT).

Public surface:

- wire format: :class:`MmtHeader`, :class:`Feature`, :class:`MsgType`,
  :class:`AckScheme` (§5.2);
- modes: :class:`Mode`, :class:`ModeRegistry`, :func:`pilot_registry`,
  :func:`extended_registry`, :func:`transition` (§5.3);
- endpoints: :class:`MmtStack`, :class:`MmtSender`, :class:`MmtReceiver`;
- recovery: :class:`RetransmitBuffer`, :class:`BufferDirectory`;
- control payloads: :class:`NakPayload`, :class:`DeadlineMissPayload`,
  :class:`BackpressurePayload`, :class:`HeartbeatPayload`.
"""

from .control import (
    BackpressurePayload,
    ControlCodecError,
    DeadlineMissPayload,
    HeartbeatPayload,
    ModeAnnouncePayload,
    NakPayload,
    SeqRange,
    WindowUpdatePayload,
)
from .endpoint import (
    EndpointError,
    MmtReceiver,
    MmtSender,
    MmtStack,
    ReceiverConfig,
    ReceiverStats,
    SenderConfig,
    SenderStats,
)
from .features import (
    AckScheme,
    Feature,
    MsgType,
    pack_config_data,
    unpack_config_data,
)
from .header import (
    CORE_HEADER_BYTES,
    HeaderError,
    MmtHeader,
    make_experiment_id,
    pack_ipv4,
    split_experiment_id,
    unpack_ipv4,
)
from .modes import (
    Mode,
    ModeError,
    ModeRegistry,
    TransitionContext,
    extended_registry,
    pilot_registry,
    transition,
)
from .retransmit import (
    BufferDirectory,
    BufferRegistration,
    NakForwardGuard,
    RetransmitBuffer,
)
from .seqspace import SEQ_MOD, unwrap, wrap

__all__ = [
    "AckScheme",
    "BackpressurePayload",
    "BufferDirectory",
    "BufferRegistration",
    "CORE_HEADER_BYTES",
    "ControlCodecError",
    "DeadlineMissPayload",
    "EndpointError",
    "Feature",
    "HeaderError",
    "HeartbeatPayload",
    "MmtHeader",
    "MmtReceiver",
    "MmtSender",
    "MmtStack",
    "Mode",
    "ModeAnnouncePayload",
    "ModeError",
    "ModeRegistry",
    "MsgType",
    "NakForwardGuard",
    "NakPayload",
    "ReceiverConfig",
    "ReceiverStats",
    "RetransmitBuffer",
    "SEQ_MOD",
    "SenderConfig",
    "SenderStats",
    "SeqRange",
    "TransitionContext",
    "WindowUpdatePayload",
    "extended_registry",
    "make_experiment_id",
    "pack_config_data",
    "pack_ipv4",
    "pilot_registry",
    "split_experiment_id",
    "transition",
    "unpack_config_data",
    "unpack_ipv4",
    "unwrap",
    "wrap",
]
