"""The stable ``repro.api`` facade and its top-level re-export."""

import pytest

import repro
from repro import api
from repro.core.joint import jps
from repro.net.bandwidth import WIFI, BandwidthPreset
from repro.net.channel import Channel
from repro.nn.zoo import MODELS, get_model


def test_facade_exports_resolve():
    for name in api.__all__:
        assert getattr(api, name) is not None


def test_top_level_reexport_is_the_facade():
    assert repro.plan is api.plan
    assert repro.compare is api.compare
    assert repro.PlanningEngine is api.PlanningEngine
    assert repro.Schedule is api.Schedule
    with pytest.raises(AttributeError):
        repro.no_such_symbol


def test_installed_version_is_the_package_version():
    """pyproject.toml reads its version from ``repro.__version__``."""
    from importlib import metadata

    try:
        installed = metadata.version("repro")
    except metadata.PackageNotFoundError:
        pytest.skip("repro is not installed")
    assert installed == repro.__version__


def test_old_import_paths_still_work():
    from repro.core import jps as deep_jps
    from repro.core.plans import Schedule as DeepSchedule
    from repro.net.channel import Channel as DeepChannel

    assert deep_jps is jps
    assert DeepSchedule is api.Schedule
    assert DeepChannel is api.Channel


def test_list_models_matches_zoo():
    assert api.list_models() == sorted(MODELS)


def test_as_channel_coercions():
    ready = api.as_channel(12.0)
    assert isinstance(ready, Channel)
    assert api.as_channel(ready) is ready
    preset = api.as_channel(WIFI)
    assert isinstance(WIFI, BandwidthPreset)
    assert preset.uplink_bps == pytest.approx(WIFI.uplink_bps)
    assert ready.uplink_bps == pytest.approx(12e6)


def test_plan_accepts_enum_and_string_variants():
    by_string = api.plan("alexnet", n=10, bandwidth=10.0, split="ratio")
    by_enum = api.plan("alexnet", n=10, bandwidth=10.0, split=api.SplitMode.RATIO)
    assert by_string.makespan == by_enum.makespan
    with pytest.raises(ValueError, match="split mode"):
        api.plan("alexnet", n=10, bandwidth=10.0, split="sideways")


def test_compare_covers_all_schemes():
    side_by_side = api.compare("alexnet", n=10, bandwidth=10.0)
    assert set(side_by_side) == {"LO", "CO", "PO", "JPS"}
    assert side_by_side["JPS"].makespan <= side_by_side["LO"].makespan


def test_custom_engine_is_honored():
    engine = api.PlanningEngine()
    api.plan("alexnet", n=5, bandwidth=10.0, engine=engine)
    assert engine.stats()["line_structure"]["misses"] == 1


@pytest.mark.parametrize("name", sorted(MODELS))
def test_plan_matches_core_jps_for_every_zoo_model(name):
    """Regression net: the facade must reproduce the uncached planner."""
    network = get_model(name)
    engine = api.default_engine()
    channel = api.as_channel(10.0)
    direct = jps(network, engine.mobile, engine.cloud, channel, n=4)
    via_facade = api.plan(network, n=4, bandwidth=channel)
    assert via_facade.makespan == pytest.approx(direct.makespan, rel=1e-12)


def test_serving_surface_reexported():
    """The gateway, estimator, and online scheduler ride the facade."""
    from repro import serving
    from repro.extensions import online

    assert api.Gateway is serving.Gateway
    assert api.AdaptiveChannelEstimator is serving.AdaptiveChannelEstimator
    assert api.MetricsRegistry is serving.MetricsRegistry
    assert api.ClientSpec is serving.ClientSpec
    assert api.Request is serving.Request
    assert api.OnlineJpsScheduler is online.OnlineJpsScheduler
    assert api.ReleasedJob is online.ReleasedJob
    assert api.clairvoyant_makespan is online.clairvoyant_makespan
    # and through the lazy top-level package facade too
    import repro

    assert repro.Gateway is serving.Gateway
    assert repro.BandwidthTimeline is api.BandwidthTimeline
