"""Network substrate: bandwidth presets, traffic shaping, channel model."""

from repro.net.bandwidth import (
    FOUR_G,
    PRESETS,
    THREE_G,
    WIFI,
    BandwidthPreset,
    TrafficShaper,
)
from repro.net.channel import Channel, as_channel
from repro.net.timeline import BandwidthTimeline

__all__ = [
    "BandwidthPreset",
    "BandwidthTimeline",
    "Channel",
    "FOUR_G",
    "PRESETS",
    "THREE_G",
    "TrafficShaper",
    "WIFI",
    "as_channel",
]
