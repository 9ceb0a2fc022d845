"""Bandwidth presets, shaper, channel model."""

import pytest

from repro.net.bandwidth import FOUR_G, PRESETS, THREE_G, WIFI, BandwidthPreset, TrafficShaper
from repro.net.channel import Channel
from repro.utils.units import mbps


def test_paper_preset_rates():
    assert THREE_G.uplink_bps == pytest.approx(1.1e6)
    assert FOUR_G.uplink_bps == pytest.approx(5.85e6)
    assert WIFI.uplink_bps == pytest.approx(18.88e6)
    assert set(PRESETS) == {"3G", "4G", "Wi-Fi"}


def test_preset_validation():
    with pytest.raises(ValueError):
        BandwidthPreset("bad", uplink_bps=0, downlink_bps=1)


def test_shaper_mutation_is_seen_by_channel():
    shaper = TrafficShaper.from_preset(WIFI)
    channel = Channel(shaper=shaper)
    before = channel.uplink_time(1e6)
    shaper.set_uplink_mbps(1.0)
    after = channel.uplink_time(1e6)
    assert after > before * 10


def test_shaper_validation():
    shaper = TrafficShaper.from_preset(WIFI)
    with pytest.raises(ValueError):
        shaper.set_uplink_mbps(0)
    with pytest.raises(ValueError):
        shaper.set_downlink_mbps(-1)
    with pytest.raises(ValueError):
        TrafficShaper(uplink_bps=-1, downlink_bps=1)


@pytest.mark.parametrize("rate", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_rates_are_rejected_with_their_field(rate):
    for field in ("uplink_bps", "downlink_bps"):
        rates = {"uplink_bps": 1e6, "downlink_bps": 1e6, field: rate}
        with pytest.raises(ValueError, match=field):
            TrafficShaper(**rates)
        with pytest.raises(ValueError, match=field):
            BandwidthPreset("bad", **rates)
    shaper = TrafficShaper.from_preset(WIFI)
    with pytest.raises(ValueError, match="uplink Mbps"):
        shaper.set_uplink_mbps(rate)
    with pytest.raises(ValueError, match="downlink Mbps"):
        shaper.set_downlink_mbps(rate)
    assert shaper == TrafficShaper.from_preset(WIFI)  # nothing was set


def test_channel_zero_payload_costs_nothing():
    channel = Channel.from_preset(FOUR_G)
    assert channel.uplink_time(0) == 0.0
    assert channel.downlink_time(0) == 0.0


def test_channel_uplink_affine_in_bytes():
    channel = Channel.from_preset(FOUR_G)
    t1 = channel.uplink_time(1e5)
    t2 = channel.uplink_time(2e5)
    t3 = channel.uplink_time(3e5)
    # affine: equal increments
    assert t2 - t1 == pytest.approx(t3 - t2)
    # setup latency shows as an intercept
    assert t1 > 1e5 * 8 / FOUR_G.uplink_bps


def test_channel_includes_header_and_overhead():
    channel = Channel(
        shaper=TrafficShaper(uplink_bps=mbps(8), downlink_bps=mbps(8)),
        setup_latency=0.0,
        header_bytes=0,
        protocol_overhead=1.0,
    )
    # 1 MB over 8 Mbps with no overheads -> exactly 1 s
    assert channel.uplink_time(1e6) == pytest.approx(1.0)


def test_channel_rejects_negative_payload():
    channel = Channel.from_preset(FOUR_G)
    with pytest.raises(ValueError):
        channel.uplink_time(-1)


def test_channel_validation():
    with pytest.raises(ValueError):
        Channel(shaper=TrafficShaper.from_preset(FOUR_G), setup_latency=-1)
    with pytest.raises(ValueError):
        Channel(shaper=TrafficShaper.from_preset(FOUR_G), protocol_overhead=0)
    for field in ("setup_latency", "header_bytes"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                Channel(shaper=TrafficShaper.from_preset(FOUR_G), **{field: value})


def test_downlink_uses_downlink_rate():
    channel = Channel.from_preset(FOUR_G)
    assert channel.downlink_time(1e6) < channel.uplink_time(1e6)
