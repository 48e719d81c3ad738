"""DTN tuning profiles for the TCP baseline.

"Across all stages where it is used, TCP is heavily tuned to support
high data rates" (§4). These profiles are the two ends of the ladder a
Data Transfer Node operator climbs (fasterdata-style guidance): an
untuned distro default and a fully tuned 100 GbE DTN. Runs use the
tuned one, so the baseline is *fair* — the paper's comparison is
against tuned TCP, not a strawman.
"""

from __future__ import annotations

from ..netsim.units import MILLISECOND
from .tcp import TcpConfig

#: Standard Ethernet MSS (1500 MTU minus headers).
STANDARD_MSS = 1460
#: Jumbo-frame MSS (9000 MTU minus headers) — DAQ networks remove
#: fragmentation by configuring jumbo MTUs end to end (§2.1).
JUMBO_MSS = 8960


def untuned() -> TcpConfig:
    """A distro-default host: small buffers, standard frames, CUBIC."""
    return TcpConfig(
        mss=STANDARD_MSS,
        recv_buffer_bytes=212_992,  # Linux default tcp_rmem max before autotuning
        congestion_control="cubic",
        ack_every=2,
    )


def tuned_100g() -> TcpConfig:
    """A modern tuned DTN: buffers sized for ~100 ms × 100 Gb/s paths."""
    return TcpConfig(
        mss=JUMBO_MSS,
        recv_buffer_bytes=1024 * 1024 * 1024,
        congestion_control="cubic",
        min_rto_ns=200 * MILLISECOND,
        ack_every=1,
    )

