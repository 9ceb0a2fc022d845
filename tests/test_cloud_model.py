"""CloudGpuModel: the batch latency decomposition is exact and sane.

The whole batching subsystem leans on one algebraic fact: a batch of
one costs *exactly* the solo time (``fixed + marginal == unit`` in
floats, not approximately), which is what makes ``serve_now`` dispatch
event-for-event identical to the unbatched gateway path. These tests
lock that identity plus the qualitative shape of the throughput curve
(latency grows with batch size, per-item cost shrinks) and the JSON
round-trip / calibration contracts.
"""

import json
import math

import pytest

from repro.cloud import CloudGpuModel


def test_batch_of_one_is_exactly_solo_time():
    model = CloudGpuModel(overhead_fraction=0.35)
    for solo in (0.001, 0.0123456789, 0.1, 1.7, 3.3e-4):
        unit = model.unit_time(solo)
        # exact float identity, not approx: serve_now parity depends on it
        assert model.fixed_part(unit) + model.marginal_part(unit) == unit
        assert model.batch_latency([unit]) == unit


def test_speedup_scales_unit_time():
    fast = CloudGpuModel(speedup=2.0)
    slow = CloudGpuModel(speedup=0.5)
    assert fast.unit_time(1.0) == pytest.approx(0.5)
    assert slow.unit_time(1.0) == pytest.approx(2.0)


def test_batch_latency_below_serial_sum():
    """Batching wins: one shared launch overhead instead of b of them."""
    model = CloudGpuModel(overhead_fraction=0.5)
    units = [0.010, 0.012, 0.008, 0.011]
    batched = model.batch_latency(units)
    serial = sum(units)
    assert batched < serial
    # exactly one max fixed part + all marginal parts
    expected = max(model.fixed_part(u) for u in units) + sum(
        model.marginal_part(u) for u in units
    )
    assert batched == expected


def test_throughput_curve_shape():
    model = CloudGpuModel(overhead_fraction=0.6)
    curve = model.throughput_curve(0.010, max_batch=8)
    assert [point["batch_size"] for point in curve] == list(range(1, 9))
    latencies = [point["latency"] for point in curve]
    per_item = [point["per_item"] for point in curve]
    items_per_s = [point["items_per_s"] for point in curve]
    assert latencies == sorted(latencies)  # latency grows with b
    assert per_item == sorted(per_item, reverse=True)  # amortizes down
    assert items_per_s == sorted(items_per_s)  # throughput grows
    assert latencies[0] == pytest.approx(0.010)


def test_amortized_latency_decreasing():
    model = CloudGpuModel(overhead_fraction=0.4)
    values = [model.amortized_latency(0.02, b) for b in range(1, 9)]
    assert values == sorted(values, reverse=True)
    assert values[0] == pytest.approx(0.02)


def test_round_trip():
    model = CloudGpuModel(name="my-gpu", overhead_fraction=0.7, speedup=0.1)
    document = json.loads(json.dumps(model.as_dict()))
    assert CloudGpuModel.from_dict(document) == model


def test_calibrate_from_profiles():
    model = CloudGpuModel.calibrate(model="alexnet")
    assert 0.0 < model.overhead_fraction < 1.0
    assert model.speedup == 1.0
    contended = CloudGpuModel.calibrate(model="alexnet", speedup=0.05)
    assert contended.speedup == 0.05
    assert contended.overhead_fraction == model.overhead_fraction


@pytest.mark.parametrize(
    "kwargs",
    [
        {"overhead_fraction": -0.1},
        {"overhead_fraction": 1.0},
        {"overhead_fraction": 1.5},
        {"speedup": 0.0},
        {"speedup": -1.0},
        # an infinite GPU ran every executed cloud stage in 0 s
        {"speedup": math.inf},
        {"speedup": math.nan},
    ],
)
def test_validation_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        CloudGpuModel(**kwargs)


def test_batch_latency_rejects_empty():
    with pytest.raises(ValueError):
        CloudGpuModel().batch_latency([])
