"""The communication channel model ``t = w0 + w1 * s / b`` (paper §6.1).

``w0`` is the fixed cost of setting up the transfer (gRPC request
framing, TCP round trip); the linear term is the serialization delay of
``s`` bytes over ``b`` bits/s. ``w1`` absorbs protocol overhead — with
ideal framing ``w1 = 8`` bits/byte exactly; measured channels fit a
slightly larger slope.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.bandwidth import BandwidthPreset, TrafficShaper
from repro.utils.units import BITS_PER_BYTE, mbps, ms
from repro.utils.validation import require_non_negative, require_positive

__all__ = ["Channel", "as_channel"]

#: Default gRPC-ish setup latency (connection reuse assumed, header cost only).
DEFAULT_SETUP_LATENCY = ms(5.0)

#: Bytes of framing added to every message (serialization header + gRPC envelope).
DEFAULT_HEADER_BYTES = 256


@dataclass
class Channel:
    """An uplink/downlink pair with setup latency and framing overhead.

    The ``shaper`` is shared state: experiments mutate it to sweep
    bandwidths, and every channel reading it sees the new rate — exactly
    the wondershaper behaviour on the testbed.
    """

    shaper: TrafficShaper
    setup_latency: float = DEFAULT_SETUP_LATENCY
    header_bytes: int = DEFAULT_HEADER_BYTES
    protocol_overhead: float = 1.05  # w1 / 8: TCP/IP + gRPC framing expansion

    def __post_init__(self) -> None:
        require_non_negative(self.setup_latency, "setup_latency")
        require_non_negative(self.header_bytes, "header_bytes")
        require_positive(self.protocol_overhead, "protocol_overhead")

    @classmethod
    def from_preset(cls, preset: BandwidthPreset, **kwargs) -> "Channel":
        return cls(shaper=TrafficShaper.from_preset(preset), **kwargs)

    @property
    def uplink_bps(self) -> float:
        return self.shaper.uplink_bps

    @property
    def downlink_bps(self) -> float:
        return self.shaper.downlink_bps

    def uplink_time(self, payload_bytes: float) -> float:
        """Seconds to upload ``payload_bytes`` (the paper's ``g``).

        Zero bytes means nothing crosses the network (a fully-local job)
        and costs nothing — no setup latency either.
        """
        require_non_negative(payload_bytes, "payload_bytes")
        if payload_bytes == 0:
            return 0.0
        wire_bytes = (payload_bytes + self.header_bytes) * self.protocol_overhead
        return self.setup_latency + wire_bytes * BITS_PER_BYTE / self.shaper.uplink_bps

    def downlink_time(self, payload_bytes: float) -> float:
        """Seconds to download ``payload_bytes`` (result return)."""
        require_non_negative(payload_bytes, "payload_bytes")
        if payload_bytes == 0:
            return 0.0
        wire_bytes = (payload_bytes + self.header_bytes) * self.protocol_overhead
        return self.setup_latency + wire_bytes * BITS_PER_BYTE / self.shaper.downlink_bps


def as_channel(bandwidth: Channel | BandwidthPreset | float) -> Channel:
    """Coerce a bandwidth spec to a :class:`Channel`.

    Accepts a ready channel, a named preset (3G/4G/Wi-Fi), or a raw
    uplink rate in Mbps with the downlink at twice the uplink.
    """
    if isinstance(bandwidth, Channel):
        return bandwidth
    if isinstance(bandwidth, BandwidthPreset):
        return Channel.from_preset(bandwidth)
    uplink = float(bandwidth)
    return Channel(
        shaper=TrafficShaper(uplink_bps=mbps(uplink), downlink_bps=mbps(2 * uplink))
    )
