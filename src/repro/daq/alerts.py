"""Alert streams: Vera Rubin's distribution stream and multi-domain
supernova early warnings (DUNE → optical telescopes).

Two integration-critical flows from the paper:

- Rubin's alert stream "is expected to burst to 5.4 Gbps, and takes
  place alongside the nightly 30 TB capture" (§2.1) and must reach
  researchers "at the time-scale of milliseconds" (§4.1);
- "a supernova burst detected in DUNE would alert Vera Rubin on where
  to expect photons to arrive from — since neutrinos escape the
  collapsing star before photons are emitted" (§3, Req 10). The
  neutrino-to-photon lead time ranges from about a minute to days
  depending on the progenitor.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..netsim.units import MILLISECOND, SECOND, gbps
from .generators import PoissonEvents, TrafficProcess

#: Peak rate of the Rubin alert distribution stream (§2.1).
RUBIN_ALERT_BURST_BPS = gbps(5.4)

#: Neutrino→photon lead time bounds (§3): ~1 minute to several days.
SUPERNOVA_LEAD_TIME_MIN_NS = 60 * SECOND
SUPERNOVA_LEAD_TIME_MAX_NS = 3 * 24 * 3600 * SECOND


def rubin_alert_stream(exposure_cadence_s: float = 30.0) -> TrafficProcess:
    """Rubin's alert bursts: each exposure yields a burst of alert
    packets peaking near 5.4 Gb/s for a few milliseconds."""
    alert_bytes = 8192
    burst_messages = 80  # ~0.65 MB per exposure's alert batch
    return PoissonEvents(
        event_rate_hz=1.0 / exposure_cadence_s,
        messages_per_event=burst_messages,
        message_bytes=alert_bytes,
        burst_spacing_ns=(alert_bytes * 8 * SECOND) // RUBIN_ALERT_BURST_BPS,
        kind="alert",
    )


@dataclass
class SupernovaAlert:
    """A pointing alert: where and when to look for the photons.

    Compact by design — this is the message that must cross domains in
    milliseconds while the triggering burst data is still being read
    out.
    """

    detection_time_ns: int
    right_ascension_mdeg: int  # millidegrees, keeps the codec integer
    declination_mdeg: int
    confidence_pct: int
    neutrino_count: int

    _FORMAT = ">QiiBxH"
    SIZE = struct.calcsize(_FORMAT)

    def encode(self) -> bytes:
        return struct.pack(
            self._FORMAT,
            self.detection_time_ns,
            self.right_ascension_mdeg,
            self.declination_mdeg,
            self.confidence_pct,
            self.neutrino_count,
        )

    @classmethod
    def decode(cls, data: bytes) -> "SupernovaAlert":
        if len(data) < cls.SIZE:
            raise ValueError(f"truncated supernova alert: {len(data)} bytes")
        t, ra, dec, conf, count = struct.unpack(cls._FORMAT, data[: cls.SIZE])
        return cls(t, ra, dec, conf, count)


@dataclass
class BurstDetector:
    """Online supernova-burst trigger over a neutrino-candidate stream.

    Fires when more than ``threshold`` candidates land inside a sliding
    ``window_ns`` — the standard DUNE SNB trigger shape. Deliberately
    simple: the point is the *latency path* from detection to a
    cross-instrument alert, not trigger physics.
    """

    window_ns: int = 1000 * MILLISECOND
    threshold: int = 20

    def __post_init__(self) -> None:
        self._times: list[int] = []
        self.triggered_at: int | None = None

    def observe(self, time_ns: int) -> bool:
        """Record a candidate; returns True the moment the trigger fires."""
        if self.triggered_at is not None:
            return False
        self._times.append(time_ns)
        cutoff = time_ns - self.window_ns
        while self._times and self._times[0] < cutoff:
            self._times.pop(0)
        if len(self._times) >= self.threshold:
            self.triggered_at = time_ns
            return True
        return False
