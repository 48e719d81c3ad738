"""Today's DAQ transports (§4): tuned TCP and UDP baselines."""

from .tcp import (
    CongestionControl,
    CubicCC,
    RenoCC,
    TcpConfig,
    TcpConnection,
    TcpError,
    TcpStack,
    TcpStats,
    make_congestion_control,
)
from .tuning import (
    JUMBO_MSS,
    STANDARD_MSS,
    tuned_100g,
    untuned,
)
from .udp import UdpError, UdpSocket, UdpStack, remote_address

__all__ = [
    "CongestionControl",
    "CubicCC",
    "JUMBO_MSS",
    "RenoCC",
    "STANDARD_MSS",
    "TcpConfig",
    "TcpConnection",
    "TcpError",
    "TcpStack",
    "TcpStats",
    "UdpError",
    "UdpSocket",
    "UdpStack",
    "make_congestion_control",
    "remote_address",
    "tuned_100g",
    "untuned",
]
