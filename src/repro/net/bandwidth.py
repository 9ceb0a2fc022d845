"""Bandwidth presets and the wondershaper-style traffic shaper.

The paper limits the Raspberry Pi's uplink with ``wondershaper`` to
emulate cellular conditions, quoting typical rates (after [7], Hu et
al. INFOCOM'19): 3G = 1.1 Mbps, 4G = 5.85 Mbps, Wi-Fi = 18.88 Mbps.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.units import mbps
from repro.utils.validation import require_finite, require_positive

__all__ = ["BandwidthPreset", "THREE_G", "FOUR_G", "WIFI", "PRESETS", "TrafficShaper"]


@dataclass(frozen=True)
class BandwidthPreset:
    """A named uplink condition."""

    name: str
    uplink_bps: float
    downlink_bps: float

    def __post_init__(self) -> None:
        for name in ("uplink_bps", "downlink_bps"):
            require_finite(require_positive(getattr(self, name), name), name)


THREE_G = BandwidthPreset("3G", uplink_bps=mbps(1.1), downlink_bps=mbps(2.0))
FOUR_G = BandwidthPreset("4G", uplink_bps=mbps(5.85), downlink_bps=mbps(12.0))
WIFI = BandwidthPreset("Wi-Fi", uplink_bps=mbps(18.88), downlink_bps=mbps(40.0))

PRESETS: dict[str, BandwidthPreset] = {p.name: p for p in (THREE_G, FOUR_G, WIFI)}


@dataclass
class TrafficShaper:
    """Mutable rate limiter applied to a link (the wondershaper analog).

    Experiments sweep bandwidth by updating ``uplink_bps`` on a live
    shaper rather than rebuilding the channel, mirroring how the testbed
    re-runs ``wondershaper`` between trials.
    """

    uplink_bps: float
    downlink_bps: float

    def __post_init__(self) -> None:
        for name in ("uplink_bps", "downlink_bps"):
            require_finite(require_positive(getattr(self, name), name), name)

    @classmethod
    def from_preset(cls, preset: BandwidthPreset) -> "TrafficShaper":
        return cls(uplink_bps=preset.uplink_bps, downlink_bps=preset.downlink_bps)

    def set_uplink_mbps(self, value: float) -> None:
        require_finite(require_positive(value, "uplink Mbps"), "uplink Mbps")
        self.uplink_bps = mbps(value)

    def set_downlink_mbps(self, value: float) -> None:
        require_finite(require_positive(value, "downlink Mbps"), "downlink Mbps")
        self.downlink_bps = mbps(value)
