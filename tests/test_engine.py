"""PlanningEngine: memoized caches are exact, keyed, bounded, observable."""

import json

import numpy as np
import pytest

from repro.api import default_engine, list_models
from repro.core.baselines import single_job_optimal_cut
from repro.core.joint import Structure
from repro.engine import LRUCache, PlanningEngine, PricingKernel
from repro.engine.keys import channel_fingerprint, identity_token, network_fingerprint
from repro.experiments.runner import ExperimentEnv
from repro.faults.oracle import jps_line_scalar
from repro.net.bandwidth import TrafficShaper
from repro.net.channel import Channel
from repro.nn.zoo import get_model, line_dnn
from repro.profiling.device import raspberry_pi_4
from repro.profiling.latency import line_cost_table, node_mobile_time
from repro.profiling.lookup import LookupTable, build_lookup_table
from repro.profiling.regression import CommLatencyModel
from repro.runtime.scheduler_runtime import OnDeviceScheduler
from repro.utils.units import mbps
from tests.helpers import host_free


def make_channel(uplink_mbps: float) -> Channel:
    return Channel(
        shaper=TrafficShaper(
            uplink_bps=mbps(uplink_mbps), downlink_bps=mbps(2 * uplink_mbps)
        )
    )


@pytest.fixture()
def engine():
    return PlanningEngine()


def assert_same_schedule(a, b):
    assert a.makespan == b.makespan
    assert a.method == b.method
    assert len(a.jobs) == len(b.jobs)
    for pa, pb in zip(a.jobs, b.jobs):
        assert pa.cut_position == pb.cut_position
        assert pa.mobile_nodes == pb.mobile_nodes


# ----------------------------------------------------------------------
# cache hits, identity, invalidation
# ----------------------------------------------------------------------

def test_warm_plan_is_a_hit_and_identical(engine):
    channel = make_channel(10.0)
    cold = engine.plan("googlenet", 10, channel)
    warm = engine.plan("googlenet", 10, channel)
    assert_same_schedule(cold, warm)
    stats = engine.stats()
    assert stats["frontier_structure"]["misses"] == 1
    assert stats["frontier_tables"]["misses"] == 1
    assert stats["frontier_tables"]["hits"] >= 1


def test_line_model_warm_hit(engine):
    channel = make_channel(10.0)
    cold = engine.plan("alexnet", 20, channel)
    warm = engine.plan("alexnet", 20, channel)
    assert_same_schedule(cold, warm)
    stats = engine.stats()
    assert stats["line_structure"]["misses"] == 1
    assert stats["line_tables"]["hits"] >= 1


def test_perturbed_channel_misses_table_but_reuses_structure(engine):
    engine.plan("googlenet", 10, make_channel(10.0))
    before = engine.stats()
    engine.plan("googlenet", 10, make_channel(10.1))
    after = engine.stats()
    # new channel => new table key; structure is bandwidth-invariant
    assert after["frontier_tables"]["misses"] == before["frontier_tables"]["misses"] + 1
    assert after["frontier_structure"]["misses"] == before["frontier_structure"]["misses"]


def test_different_job_count_reuses_everything(engine):
    channel = make_channel(10.0)
    engine.plan("alexnet", 10, channel)
    before = engine.stats()["line_tables"]["misses"]
    engine.plan("alexnet", 200, channel)
    assert engine.stats()["line_tables"]["misses"] == before


def test_predictor_key_invalidates(engine):
    channel = make_channel(10.0)
    network = get_model("alexnet")
    predictor = None  # truth predictor either way; only the key differs
    engine.plan(network, 5, channel, predictor=predictor, predictor_key=("cal", 1))
    misses = engine.stats()["line_tables"]["misses"]
    engine.plan(network, 5, channel, predictor=predictor, predictor_key=("cal", 2))
    assert engine.stats()["line_tables"]["misses"] == misses + 1


def test_clear_resets_entries_not_counters(engine):
    channel = make_channel(10.0)
    engine.plan("alexnet", 5, channel)
    engine.clear()
    engine.plan("alexnet", 5, channel)
    assert engine.stats()["line_structure"]["misses"] == 2


# ----------------------------------------------------------------------
# exactness: a warm engine plans what a fresh one plans
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", ["alexnet", "mobilenet-v2", "googlenet"])
def test_engine_matches_core_jps(engine, name):
    channel = make_channel(8.0)
    network = get_model(name)
    engine.plan(network, 7, make_channel(3.0))  # warm the structure caches
    direct = PlanningEngine(mobile=engine.mobile, cloud=engine.cloud).plan(
        network, 20, channel
    )
    cached = engine.plan(network, 20, channel)
    assert cached.makespan == pytest.approx(direct.makespan, rel=1e-12)
    assert [p.cut_position for p in cached.jobs] == [
        p.cut_position for p in direct.jobs
    ]


def test_line_plans_match_the_scalar_reference_on_an_independent_table(mobile, cloud):
    """Every LINE zoo model: the engine's plan is, byte for byte, the
    scalar JPS composition run on a table built outside the engine."""
    engine = PlanningEngine(mobile=mobile, cloud=cloud)
    line_models = [
        name for name in list_models() if engine.structure_of(name) is Structure.LINE
    ]
    assert len(line_models) >= 10
    for name in line_models:
        network = engine.resolve(name)
        for uplink in (1.0, 5.85, 100.0):
            channel = make_channel(uplink)
            table = line_cost_table(network, mobile, cloud, channel)
            for n in (1, 4, 100):
                planned = json.dumps(host_free(engine.plan(network, n, channel)))
                reference = json.dumps(host_free(jps_line_scalar(table, n)))
                assert planned == reference, (name, uplink, n)


@pytest.mark.parametrize(
    "name, structure",
    [
        ("googlenet", Structure.FRONTIER),
        ("mini-inception", Structure.FRONTIER),
        ("multitask-perception", Structure.FRONTIER),
        ("inception-v4", Structure.DAG),
    ],
)
def test_cut_table_rows_are_their_cuts_priced_again(name, structure):
    """Each row of a frontier or DAG cost table is its cut, priced here:
    f sums the node mobile times over the cut, g uploads its crossing
    bytes (nothing for the all-mobile cut), and cloud is the running max
    of the cloud time spent on the mobile side."""
    engine = default_engine()
    channel = make_channel(5.85)
    assert engine.structure_of(name) is structure
    table = engine.cost_table(name, channel)
    by_kind = {Structure.FRONTIER: engine.frontier_table, Structure.DAG: engine.dag_table}
    cuts = by_kind[structure](name, channel).cuts
    assert len(cuts) == table.k
    graph = engine.resolve(name).graph
    mobile_time = {v: node_mobile_time(graph.payload(v), engine.mobile) for v in graph.node_ids}
    cloud_time = {v: node_mobile_time(graph.payload(v), engine.cloud) for v in graph.node_ids}
    total_cloud = sum(cloud_time.values())
    rests = [total_cloud - sum(cloud_time[v] for v in cut.mobile) for cut in cuts]
    running = 0.0
    for i, cut in enumerate(cuts):
        all_mobile = len(cut.mobile) == len(graph)
        running = max(running, max(rests) - rests[i])
        assert table.f[i] == sum(mobile_time[v] for v in cut.mobile), (name, i)
        assert table.g[i] == (
            0.0 if all_mobile else channel.uplink_time(cut.transfer_bytes)
        ), (name, i)
        assert table.cloud[i] == running, (name, i)
    assert np.all(np.diff(table.f) >= 0)
    sizes = [cut.transfer_bytes for cut in cuts]
    assert all(later < earlier for earlier, later in zip(sizes, sizes[1:]))


@pytest.mark.parametrize("scheme", ["LO", "CO", "PO", "JPS"])
def test_engine_matches_experiment_env(engine, scheme):
    env = ExperimentEnv()
    for name in ("alexnet", "googlenet"):
        ours = engine.plan(name, 10, make_channel(10.0), scheme=scheme)
        theirs = env.run_scheme(name, 10.0, 10, scheme)
        assert ours.makespan == pytest.approx(theirs.makespan, rel=1e-12)


def test_paths_structure_matches_alg3(engine):
    from repro.core.general import alg3_schedule

    channel = make_channel(10.0)
    network = get_model("mini-inception")
    direct = alg3_schedule(network, engine.mobile, engine.cloud, channel, n=8)
    cached = engine.plan(network, 8, channel, structure="paths")
    again = engine.plan(network, 8, channel, structure="paths")
    assert cached.makespan == pytest.approx(direct.makespan, rel=1e-12)
    assert_same_schedule(cached, again)
    assert engine.stats()["alg3_plans"]["hits"] >= 1


def test_unknown_scheme_rejected(engine):
    with pytest.raises(ValueError, match="unknown scheme"):
        engine.plan("alexnet", 5, make_channel(10.0), scheme="BOGUS")


# ----------------------------------------------------------------------
# LRU bound and key helpers
# ----------------------------------------------------------------------

def test_lru_eviction_counts():
    engine = PlanningEngine(max_entries=2)
    for rate in (5.0, 10.0, 20.0):
        engine.plan("alexnet", 5, make_channel(rate))
    stats = engine.stats()["line_tables"]
    assert stats["evictions"] >= 1
    assert stats["entries"] <= 2


def test_lru_cache_recency_order():
    cache = LRUCache(max_entries=2)
    cache.get_or_build("a", lambda: 1)
    cache.get_or_build("b", lambda: 2)
    cache.get_or_build("a", lambda: 1)   # refresh "a"
    cache.get_or_build("c", lambda: 3)   # evicts "b", the stalest
    assert cache.peek("a") == 1
    assert cache.peek("b") is None
    assert cache.stats.evictions == 1


def test_channel_fingerprint_sensitivity():
    assert channel_fingerprint(make_channel(10.0)) == channel_fingerprint(
        make_channel(10.0)
    )
    assert channel_fingerprint(make_channel(10.0)) != channel_fingerprint(
        make_channel(10.1)
    )


def test_network_fingerprint_tracks_structure():
    assert network_fingerprint(get_model("alexnet")) == network_fingerprint(
        get_model("alexnet")
    )
    assert network_fingerprint(get_model("alexnet")) != network_fingerprint(
        get_model("vgg11")
    )


# ----------------------------------------------------------------------
# identity keys never outlive their objects
# ----------------------------------------------------------------------

class _BareLink:
    """A duck-typed channel without ``cache_token``: keyed by identity."""

    def __init__(self, uplink_bps: float):
        self.uplink_bps = uplink_bps

    def uplink_time(self, payload_bytes: float) -> float:
        return payload_bytes * 8 / self.uplink_bps if payload_bytes > 0 else 0.0


def _scaled_predictor(i: int):
    def predict(node) -> float:
        return 1e-3 * (1 + i) + node.flops / 1e9
    return predict


_ALEXNET_LOOKUP = build_lookup_table([get_model("alexnet")], raspberry_pi_4(), seed=0)


def _scheduler_plan(engine, lookup):
    scheduler = OnDeviceScheduler(
        mobile=engine.mobile,
        engine=engine,
        lookup=lookup,
        comm_model=CommLatencyModel(w0=0.01, w1=8.0, fitted=True),
    )
    return scheduler.plan(get_model("alexnet"), 6, mbps(10.0)).schedule


#: source -> (make the i-th transient object, plan with it on an engine)
IDENTITY_SOURCES = {
    "network": (
        lambda i: line_dnn(depth=3, input_size=16 + i),
        lambda engine, network: engine.plan(network, 6, make_channel(10.0)),
    ),
    "predictor": (
        _scaled_predictor,
        lambda engine, predictor: engine.plan(
            "alexnet", 6, make_channel(10.0), predictor=predictor
        ),
    ),
    "channel": (
        lambda i: _BareLink(mbps(1.0 + i)),
        lambda engine, link: engine.plan("alexnet", 6, link),
    ),
    "lookup": (
        lambda i: LookupTable(
            device="rpi",
            times={k: v * (1 + i) for k, v in _ALEXNET_LOOKUP.times.items()},
        ),
        _scheduler_plan,
    ),
}


@pytest.mark.parametrize("source", sorted(IDENTITY_SOURCES))
def test_identity_keys_do_not_outlive_their_objects(source):
    """Plan transient objects on one engine until one is allocated at a
    freed one's address: it must not inherit the dead object's plans."""
    make, plan = IDENTITY_SOURCES[source]
    engine = PlanningEngine()
    seen: set[int] = set()
    for i in range(2000):
        obj = make(i)
        if id(obj) in seen:
            break
        seen.add(id(obj))
        plan(engine, obj)
        del obj
    else:
        pytest.fail("no address was reused")
    assert host_free(plan(engine, obj)) == host_free(plan(PlanningEngine(), obj))


def test_identity_token_holds_objects_it_cannot_weakly_reference():
    assert identity_token(len) == identity_token(len)  # builtins have no weakref
    assert identity_token(len) != identity_token(abs)


# ----------------------------------------------------------------------
# the public stats surface
# ----------------------------------------------------------------------

def test_stats_snapshot_totals_are_plain_and_consistent(engine):
    engine.plan("alexnet", 5, make_channel(10.0))
    engine.plan("alexnet", 5, make_channel(10.0))   # warm hit
    snapshot = engine.stats_snapshot()
    assert set(snapshot) == {"layers", "totals"}
    totals = snapshot["totals"]
    assert set(totals) == {"hits", "misses", "evictions", "entries", "hit_rate"}
    layers = snapshot["layers"]
    assert totals["hits"] == sum(s["hits"] for s in layers.values())
    assert totals["misses"] == sum(s["misses"] for s in layers.values())
    assert totals["entries"] == sum(s["entries"] for s in layers.values())
    assert 0.0 <= totals["hit_rate"] <= 1.0
    assert totals["hits"] > 0


def test_stats_snapshot_empty_engine():
    totals = PlanningEngine().stats_snapshot()["totals"]
    assert totals["hits"] == totals["misses"] == 0
    assert totals["hit_rate"] == 0.0


# ----------------------------------------------------------------------
# bandwidth-vectorized pricing: priced_table / plan_batch
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", ["alexnet", "googlenet"])
def test_priced_table_matches_cost_table(engine, name):
    for uplink_mbps in (1.0, 8.0, 40.0):
        channel = make_channel(uplink_mbps)
        via_channel = engine.cost_table(name, channel)
        priced = engine.priced_table(name, mbps(uplink_mbps))
        assert priced.table.model_name == via_channel.model_name
        assert priced.table.positions == via_channel.positions
        assert (priced.table.f == via_channel.f).all()
        assert (priced.table.g == via_channel.g).all()
        assert (priced.table.cloud == via_channel.cloud).all()


def test_priced_table_rejects_paths_structure(engine):
    with pytest.raises(ValueError, match="per-path tables"):
        engine.priced_table("alexnet", mbps(8.0), structure="paths")


@pytest.mark.parametrize("scheme", ["LO", "CO", "PO", "JPS"])
def test_plan_batch_matches_per_call_plan(engine, scheme):
    rates = [mbps(b) for b in (0.8, 4.0, 18.88, 65.0)]
    for name in ("alexnet", "googlenet"):
        batch = engine.plan_batch(name, 10, rates, scheme=scheme)
        assert len(batch) == len(rates)
        for uplink_bps, ours in zip(rates, batch):
            channel = make_channel(uplink_bps / 1e6)
            theirs = engine.plan(name, 10, channel, scheme=scheme)
            assert_same_schedule(ours, theirs)


def test_plan_batch_wrap_frontier_flag(engine):
    """Frontier schedules from plan_batch carry their concrete cuts."""
    wrapped = engine.plan_batch("googlenet", 6, [mbps(10.0)])[0]
    assert wrapped.method == "JPS-frontier"
    assert all(p.mobile_nodes is not None for p in wrapped.jobs)


def test_plan_batch_prices_one_kernel_per_model(engine):
    rates = [mbps(b) for b in (1.0, 5.0, 25.0, 80.0)]
    engine.plan_batch("alexnet", 10, rates)
    first = engine.stats()["pricing_kernels"]
    assert first["misses"] == 1
    assert first["entries"] == 1
    engine.plan_batch("alexnet", 10, [mbps(b) for b in (2.0, 60.0)])
    second = engine.stats()["pricing_kernels"]
    assert second["misses"] == 1
    assert second["hits"] >= 1


# ----------------------------------------------------------------------
# pricing kernels: batched single-job cuts and input validation
# ----------------------------------------------------------------------

KERNEL_MODELS = [m for m in list_models() if m != "inception-v4"]


@pytest.fixture(scope="module")
def warm_engine():
    return PlanningEngine()


def tie_rates(kernel: PricingKernel, include_cloud: bool) -> list[float]:
    """Rates where two positions' single-job totals cross, and neighbors."""
    crosses = kernel.wire_bits > 0
    base = kernel.f + np.where(crosses, kernel.setup_latency, 0.0)
    if include_cloud:
        base = base + kernel.rest
    rates = []
    for i in range(len(base)):
        for j in range(i + 1, len(base)):
            gap = base[j] - base[i]
            if gap != 0:
                rate = (kernel.wire_bits[i] - kernel.wire_bits[j]) / gap
                if 0 < rate < np.inf:
                    rates += [np.nextafter(rate, 0), rate, np.nextafter(rate, np.inf)]
    return rates


def assert_cuts_match_per_rate(kernel: PricingKernel, rates, include_cloud: bool):
    cut, f, unit = kernel.single_job_cuts(rates, include_cloud)
    assert cut.shape == f.shape == unit.shape == (len(rates),)
    for i, rate in enumerate(rates):
        table = kernel.table_at(rate)
        position = single_job_optimal_cut(table, include_cloud=include_cloud)
        f_ref, g_ref = table.stage_lengths(position)
        unit_ref = f_ref + g_ref + table.cloud_rest(position)
        assert int(cut[i]) == position, (rate, include_cloud)
        assert float(f[i]).hex() == f_ref.hex()
        assert float(unit[i]).hex() == unit_ref.hex()


@pytest.mark.parametrize("include_cloud", [True, False])
@pytest.mark.parametrize("name", KERNEL_MODELS)
def test_single_job_cuts_match_the_per_rate_cut(warm_engine, name, include_cloud):
    kernel = warm_engine.pricing_kernel(name)
    rng = np.random.default_rng(7)
    log_uniform = list(10 ** rng.uniform(4.0, 9.0, size=32))
    repeated = [log_uniform[3]] * 3 + [log_uniform[0], log_uniform[3]]
    for rates in (log_uniform, repeated, tie_rates(kernel, include_cloud)):
        if rates:
            assert_cuts_match_per_rate(kernel, rates, include_cloud)


@pytest.mark.parametrize("include_cloud", [True, False])
def test_single_job_cuts_dag_kernel(warm_engine, include_cloud):
    kernel = warm_engine.pricing_kernel("multitask-perception", structure="dag")
    rates = [mbps(b) for b in (0.3, 1.0, 4.0, 25.0, 300.0)]
    assert_cuts_match_per_rate(kernel, rates + tie_rates(kernel, include_cloud), include_cloud)


def toy_kernel(**overrides) -> PricingKernel:
    columns = dict(
        model_name="toy",
        positions=("a", "b", "c"),
        f=np.array([0.0, 1.0, 5.0]),
        cloud=np.array([0.0, 0.5, 1.0]),
        payload_bytes=np.array([1.0, 0.5, 0.0]),
        wire_bits=np.array([8.0, 4.0, 0.0]),
        setup_latency=0.25,
        graph=None,
        cuts=None,
    )
    columns.update(overrides)
    return PricingKernel(**columns)


def test_single_job_cuts_exact_ties_go_to_the_first_position():
    kernel = toy_kernel()
    # dyadic columns: positions a and b tie exactly at 4 b/s without
    # the cloud rest and at 8 b/s with it
    for rate, include_cloud in ((4.0, False), (8.0, True)):
        cut, _, unit = kernel.single_job_cuts([rate, rate], include_cloud)
        assert cut.tolist() == [0, 0]
        totals = kernel.f + kernel.table_at(rate).g
        if include_cloud:
            totals = totals + kernel.rest
        assert totals[0] == totals[1]
        assert_cuts_match_per_rate(kernel, [rate], include_cloud)


@pytest.mark.parametrize("rate", [float("inf"), float("nan"), 0.0])
def test_kernel_pricing_rejects_non_finite_or_non_positive_rates(rate):
    kernel = toy_kernel()
    with pytest.raises(ValueError, match="uplink_bps"):
        kernel.g_at(rate)
    with pytest.raises(ValueError, match="uplink rates must be > 0 and finite"):
        kernel.single_job_cuts([1e6, rate])
    with pytest.raises(ValueError, match="uplink_bps"):
        PlanningEngine().plan_batch("alexnet", 4, [1e6, rate])


def test_plan_batch_rejects_a_non_integer_job_count():
    engine = PlanningEngine()
    with pytest.raises(ValueError, match="n must be an integer, got 2.5"):
        engine.plan_batch("alexnet", 2.5, [1e6])
    with pytest.raises(ValueError, match="n must be an integer"):
        engine.plan("alexnet", 2.0, Channel(shaper=TrafficShaper(1e6, 2e6)))
    batch = engine.plan_batch("alexnet", np.int64(4), [1e6])
    assert host_free(batch[0]) == host_free(engine.plan_batch("alexnet", 4, [1e6])[0])


@pytest.mark.parametrize("rate", [0.0, -1.0, float("nan")])
def test_single_job_cuts_rejects_non_positive_rates(rate):
    with pytest.raises(ValueError, match="rates must be > 0"):
        toy_kernel().single_job_cuts([1e6, rate])


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"f": np.array([0.0, -1.0, 5.0])}, "f must be non-negative"),
        ({"f": np.array([0.0, 2.0, 1.0])}, "f must be non-decreasing"),
        ({"cloud": np.array([0.0, -0.5, 1.0])}, "cloud must be non-negative"),
        ({"cloud": np.array([0.0, 1.0, 0.5])}, "cloud must be non-decreasing"),
        ({"wire_bits": np.array([8.0, -4.0, 0.0])}, "wire_bits must be non-negative"),
        ({"setup_latency": -1e-3}, "setup_latency"),
    ],
)
def test_pricing_kernel_validates_its_columns_once(overrides, message):
    with pytest.raises(ValueError, match=message):
        toy_kernel(**overrides)


@pytest.mark.parametrize("value", [0.0, -1.0])
def test_pricing_kernel_rejects_non_positive_protocol_overhead(engine, value):
    # an overhead of 0 used to zero every wire_bits entry: free uploads
    with pytest.raises(ValueError, match="protocol_overhead"):
        engine.priced_table("alexnet", 1e6, protocol_overhead=value)
    with pytest.raises(ValueError, match="protocol_overhead"):
        engine.plan_batch("alexnet", 4, [1e6], protocol_overhead=value)


def test_pricing_kernel_rejects_negative_header_bytes(engine):
    with pytest.raises(ValueError, match="header_bytes"):
        engine.priced_table("alexnet", 1e6, header_bytes=-100)
    with pytest.raises(ValueError, match="header_bytes"):
        engine.pricing_kernel("alexnet", header_bytes=-100)


def test_pricing_kernel_rejects_negative_setup_latency(engine):
    # used to pass at 1 Mbps and fail only once g went negative
    with pytest.raises(ValueError, match="setup_latency"):
        engine.priced_table("alexnet", 1e6, setup_latency=-1e-3)
    with pytest.raises(ValueError, match="setup_latency"):
        engine.plan_batch("alexnet", 4, [1e6], setup_latency=-1e-3)


@pytest.mark.parametrize("field", ["setup_latency", "header_bytes"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_pricing_kernel_rejects_non_finite_framing(engine, field, value):
    # NaN used to pass the >= 0 check and price every upload at g = 0
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        engine.priced_table("alexnet", 1e6, **{field: value})
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        engine.plan_batch("alexnet", 4, [1e6], **{field: value})


def test_pricing_kernel_is_the_one_cached_lookup(engine):
    kernel = engine.pricing_kernel("alexnet")
    assert engine.priced_table("alexnet", mbps(5.0)).table.positions == kernel.positions
    assert engine.pricing_kernel("alexnet") is kernel
    assert engine.stats()["pricing_kernels"]["hits"] == 2
    assert engine.stats()["pricing_kernels"]["misses"] == 1
