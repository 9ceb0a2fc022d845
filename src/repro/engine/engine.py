"""The planning engine: memoized cost intermediates behind one ``plan()``.

Every JPS call decomposes into a *structure* phase (linearize the graph
or enumerate + Pareto-prune the frontier cut space; run Alg. 3's path
conversion) and a *search* phase (binary search + two-type split +
Johnson sort). The structure phase dominates wall time — GoogLeNet's
frontier space has thousands of candidate cuts, priced in batch by
:func:`repro.dag.cuts.frontier_pareto_cuts` — yet its inputs change
rarely: the same (network, devices, predictor) tuple is replanned for
dozens of bandwidths and job counts in every experiment sweep.

:class:`PlanningEngine` memoizes three levels of intermediates behind
content-addressed keys (:mod:`repro.engine.keys`):

* **bandwidth-independent structure** — one record per cut kind: the
  cut positions in increasing-``f`` order with their mobile compute,
  upload payload and cloud columns. A chain's downward-closed node sets
  are its prefixes, so the ``line`` kind holds the clustered line
  graph's prefixes; the ``frontier`` and ``dag`` kinds hold the Pareto
  set of the original graph's downward-closed node sets from one
  builder, and differ only in their labels. Dominance is decided on
  (compute time, transfer bytes), both bandwidth-invariant, so one
  enumeration serves every channel.
* **per-channel cost tables** — any record priced through a concrete
  channel's ``uplink_time`` by one builder; an LRU bound keeps
  sweep-heavy workloads from growing without limit.
* **Alg. 3 path plans** — per-(channel) path cuts, replayed through the
  deduplicated flow-shop recurrence for any job count.

Every planning request ends in one dispatch: the ``structure`` picks the
table each scheme plans on (the ``auto`` table unless the caller names
another, baselines included), and the ``scheme`` picks the schedule.
:meth:`~PlanningEngine.plan` prices that table through a channel,
:meth:`~PlanningEngine.plan_batch` through a pricing kernel per rate,
bit for bit alike.

A warm ``plan()`` costs the search: one ``np.searchsorted`` crossing,
the exact split (the one or two rows of its stage matrix that can
win), and at most two prototype jobs (the run-length
:class:`~repro.core.plans.RunLengthJobs` builds per-job plans only
when read) — the cost the paper's Fig. 12(d) says the deployed
scheduler pays per decision. At a rate the engine has not priced it
also builds one table: a :class:`Channel`'s ``g`` column is one
vectorized expression, shared with :class:`PricingKernel`, and the
table's checks are a few fused array tests. On a 2-vCPU VM that table
costs about as much as the exact split (~25 µs against ~27 µs), and a
JPS plus an LO plan at a fresh rate ~155 µs over the zoo
(``docs/performance.md``, "Warm planning").

The engine is the one network planner: it serves
the ``repro.api`` facade, the serving stack, the on-device scheduler and
:class:`~repro.experiments.runner.ExperimentEnv` (every figure harness).
Nothing else plans a network, so its checks do not share its caches:
the tests compare a warm engine with a fresh one, line plans with
:func:`~repro.faults.oracle.jps_line_scalar` on an independently built
:func:`~repro.profiling.latency.line_cost_table`, and plans with the
brute-force oracles of :mod:`repro.faults.oracle` and
:mod:`repro.dag.oracle`.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.baselines import cloud_only, local_only, partition_only
from repro.core.joint import SplitMode, Structure, attach_frontier_cuts, jps_line
from repro.core.plans import Schedule
from repro.dag.cuts import Cut, _fits_block_rows, frontier_pareto_cuts
from repro.dag.graph import Dag
from repro.dag.partition import (
    DagCutTable,
    cut_columns,
    dag_pareto_cuts,
    dag_schedule_from_table,
    unique_cut_labels,
)
from repro.dag.topology import is_series_parallel
from repro.dag.transform import collapse_clusterable_blocks, linearize
from repro.engine.cache import LRUCache
from repro.engine.keys import (
    channel_fingerprint,
    device_fingerprint,
    network_fingerprint,
    predictor_fingerprint,
)
from repro.net.bandwidth import TrafficShaper
from repro.net.channel import DEFAULT_HEADER_BYTES, DEFAULT_SETUP_LATENCY, Channel
from repro.nn.network import Network
from repro.nn.zoo import get_model
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NullTracer, Tracer
from repro.profiling.device import DeviceModel, gtx1080_server, raspberry_pi_4
from repro.profiling.latency import (
    CostTable,
    LayerPredictor,
    node_mobile_time,
)
from repro.utils.units import BITS_PER_BYTE
from repro.utils.validation import (
    require_finite,
    require_integer,
    require_non_negative,
    require_positive,
)

__all__ = ["PlanningEngine", "PricedModel", "PricingKernel"]

#: Baseline schemes the engine plans besides JPS.
BASELINES = {"LO": local_only, "CO": cloud_only, "PO": partition_only}

#: The engine's cache layers, in the order ``stats()`` reports them. Each
#: cut kind has a ``<kind>_structure`` and a ``<kind>_tables`` layer.
CACHE_LAYERS = (
    "line_structure",
    "frontier_structure",
    "dag_structure",
    "line_tables",
    "frontier_tables",
    "dag_tables",
    "alg3_plans",
    "pricing_kernels",
)


@dataclass(frozen=True)
class _CutSpace:
    """Bandwidth-independent facts of a model under one cut kind.

    Position ``i`` is a cut, in increasing-``f`` order. For the ``line``
    kind it is the ``i``-th prefix of the clustered line ``graph``. For
    ``frontier`` and ``dag`` it is ``cuts[i]``: both kinds hold the
    Pareto set of the original graph's whole cut space (its
    downward-closed node sets), built by
    :func:`repro.dag.cuts.frontier_pareto_cuts` and priced on the same
    columns. The kind only picks the labels: block labels
    (``inside:entry->exit``) for ``frontier``, ``make_cut``'s frontier
    labels made unique for ``dag``, whose
    :func:`repro.dag.partition.dag_pareto_cuts` also takes the graphs
    the builder cannot. On a non-series-parallel graph the builder
    cannot take, ``frontier`` gets the ``dag`` kind's cuts and labels.
    """

    model_name: str                 # the priced tables' model name
    positions: tuple[str, ...]
    f: np.ndarray                   # mobile compute up to each cut
    payloads: np.ndarray            # upload bytes, 0 where nothing crosses
    cloud: np.ndarray               # cloud compute of the mobile part, non-decreasing
    graph: Dag | None               # the clustered line graph (line kind)
    cuts: tuple[Cut, ...] | None    # the graph cuts (frontier and dag kinds)

    def __post_init__(self) -> None:
        # checked once here, so no per-channel table re-checks a payload
        if not (self.payloads >= 0).all():  # NaN fails too
            at = int(np.argmin(self.payloads >= 0))
            raise ValueError(
                f"{self.model_name}: upload payloads must be >= 0, "
                f"got payloads[{at}] = {self.payloads[at]}"
            )


def _wire_bits(
    payloads: np.ndarray, header_bytes: float, protocol_overhead: float
) -> np.ndarray:
    """The bits each position puts on the wire, 0 where nothing crosses.

    ``(payload + header) * overhead * 8``, in
    :meth:`Channel.uplink_time <repro.net.channel.Channel.uplink_time>`'s
    operation order.
    """
    return np.where(
        payloads > 0, ((payloads + header_bytes) * protocol_overhead) * BITS_PER_BYTE, 0.0
    )


def _uplink_times(
    wire_bits: np.ndarray, setup_latency: float, rates: float | np.ndarray
) -> np.ndarray:
    """``g`` at a rate, or one ``g`` row per rate of a column of rates.

    ``setup + bits / rate`` where something crosses and exactly 0
    elsewhere: bit for bit what ``Channel.uplink_time`` returns for each
    payload, since :func:`_wire_bits` keeps its operation order.
    """
    return np.where(wire_bits > 0, setup_latency + wire_bits / rates, 0.0)


@dataclass(frozen=True)
class PricingKernel:
    """A model's cost table with the bandwidth factored out.

    ``uplink_time`` is affine in ``1/B`` for fixed framing:
    ``g = setup + wire_bits / B`` wherever something crosses the network
    and exactly 0 elsewhere. Precomputing ``wire_bits`` in the same
    operation order as :meth:`Channel.uplink_time` makes :meth:`g_at`
    bit-identical to pricing through a concrete channel, so one cached
    kernel (one content-addressed key per model) serves an entire
    bandwidth vector.

    The columns are validated once, at construction: ``f`` and ``cloud``
    non-negative and non-decreasing, ``wire_bits >= 0`` and
    ``setup_latency >= 0``, which together keep ``g >= 0`` at every
    positive rate. Pricing calls then only check their rates.
    """

    model_name: str
    positions: tuple[str, ...]
    f: np.ndarray
    cloud: np.ndarray
    payload_bytes: np.ndarray       # upload payload per position (0 = all-local)
    wire_bits: np.ndarray           # (payload + header) * overhead * 8, 0-masked
    setup_latency: float
    graph: Dag | None
    cuts: tuple[Cut, ...] | None    # frontier and DAG kernels carry the real cuts
    rest: np.ndarray = field(init=False, repr=False)  # cloud time after each cut

    def __post_init__(self) -> None:
        for name in ("f", "cloud"):
            column = getattr(self, name)
            if np.any(column < 0):
                raise ValueError(f"{name} must be non-negative")
            if np.any(np.diff(column) < 0):
                raise ValueError(f"{name} must be non-decreasing")
        if np.any(self.wire_bits < 0):
            raise ValueError("wire_bits must be non-negative")
        require_non_negative(self.setup_latency, "setup_latency")
        # the same subtraction as CostTable.cloud_rest, once per kernel
        object.__setattr__(self, "rest", self.cloud[-1] - self.cloud)

    def g_at(self, uplink_bps: float) -> np.ndarray:
        """The ``g`` column at one uplink rate (bit-exact channel pricing)."""
        require_finite(require_positive(uplink_bps, "uplink_bps"), "uplink_bps")
        return _uplink_times(self.wire_bits, self.setup_latency, uplink_bps)

    def table_at(self, uplink_bps: float) -> CostTable:
        return CostTable(
            model_name=self.model_name,
            positions=self.positions,
            f=self.f.copy(),
            g=self.g_at(uplink_bps),
            cloud=self.cloud.copy(),
            graph=self.graph,
        )

    def single_job_cuts(
        self, rates: Sequence[float] | np.ndarray, include_cloud: bool = True
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The single-job optimal cut at every uplink rate of a vector.

        Prices the rates as one (rates x positions) ``g`` matrix and
        returns ``(cut, f, unit)`` arrays: each rate's cut position, its
        mobile stage ``f`` and one job's whole pipeline ``f + g + cloud
        rest``. Rate by rate this is bit-identical to
        :func:`~repro.core.baselines.single_job_optimal_cut` on
        ``table_at(rate)`` followed by ``stage_lengths`` and
        ``cloud_rest`` (ties go to the first position).
        """
        rates = np.asarray(rates, dtype=float)
        if not ((rates > 0) & np.isfinite(rates)).all():
            raise ValueError(f"uplink rates must be > 0 and finite, got {rates.tolist()!r}")
        g = _uplink_times(self.wire_bits, self.setup_latency, rates[:, None])
        totals = self.f + g
        if include_cloud:
            totals = totals + self.rest
        cut = totals.argmin(axis=1)
        f = self.f[cut]
        return cut, f, f + g[np.arange(len(rates)), cut] + self.rest[cut]


@dataclass(frozen=True)
class PricedModel:
    """A cost table priced through one channel, plus execution metadata.

    ``payloads[i]`` is the upload payload (bytes) behind position ``i``
    and, for frontier and DAG models, ``cuts[i]`` the concrete graph cut
    — what the serving gateway needs to simulate transfers without
    re-deriving structure per replan. The engine's per-channel table
    layers hold one per (model, kind, channel).
    """

    table: CostTable
    payloads: tuple[float, ...]
    cuts: tuple[Cut, ...] | None


@dataclass
class PlanningEngine:
    """Memoized planner over one (mobile, cloud) device pair.

    ``plan(model, n, channel)`` accepts a zoo model name or a
    :class:`Network`, a :class:`Channel` (or any duck-typed channel
    exposing ``uplink_time``; see :func:`repro.engine.keys.channel_fingerprint`
    for how such channels key the caches), and produces the same
    :class:`Schedule` warm or cold — the caches are exact, not
    approximate.

    ``max_entries`` bounds each per-channel LRU; the bandwidth-
    independent structure caches are bounded by the same limit but in
    practice hold one entry per distinct model.

    ``tracer`` defaults to the no-op :class:`~repro.obs.tracer.NullTracer`,
    so uninstrumented callers pay only one call per ``plan()``. Pass a
    live :class:`~repro.obs.tracer.Tracer` to record one span per plan
    and one per structure/table build — cache hits show up as plan
    spans *without* a nested build span.
    """

    mobile: DeviceModel = field(default_factory=raspberry_pi_4)
    cloud: DeviceModel = field(default_factory=gtx1080_server)
    max_entries: int = 128
    tracer: Tracer | NullTracer = field(default_factory=NullTracer)

    def __post_init__(self) -> None:
        self._networks: dict[str, Network] = {}
        self._fingerprints: dict[int, tuple[weakref.ref, str]] = {}
        self._structures: dict[str, Structure] = {}
        self._device_key = (
            device_fingerprint(self.mobile),
            device_fingerprint(self.cloud),
        )
        self._caches: dict[str, LRUCache] = {
            layer: LRUCache(self.max_entries) for layer in CACHE_LAYERS
        }
        # raw pricing_kernel arguments (zoo name, structure, framing) that
        # passed validation -> the content key they resolved to
        self._kernel_keys: dict[tuple, tuple] = {}

    # ------------------------------------------------------------------
    # keys and resolution
    # ------------------------------------------------------------------
    def resolve(self, model: str | Network) -> Network:
        """A zoo name or an already-built network."""
        if isinstance(model, Network):
            return model
        if model not in self._networks:
            self._networks[model] = get_model(model)
        return self._networks[model]

    def _net_key(self, network: Network) -> str:
        # fingerprinting walks every node; cache it per network object. The
        # weak reference stops a network allocated at a freed one's address
        # from inheriting its fingerprint. Checked inline rather than through
        # keys.identity_token: this runs on every cache lookup
        entry = self._fingerprints.get(id(network))
        if entry is None or entry[0]() is not network:
            entry = (weakref.ref(network), network_fingerprint(network))
            self._fingerprints[id(network)] = entry
        return entry[1]

    def _base_key(
        self, network: Network, predictor: LayerPredictor | None, predictor_key
    ) -> tuple:
        return (
            self._net_key(network),
            self._device_key,
            predictor_fingerprint(predictor, predictor_key),
        )

    def structure_of(self, model: str | Network) -> Structure:
        """``auto`` resolution: LINE when clustering linearizes the graph,
        FRONTIER for other series-parallel graphs, DAG past that."""
        network = self.resolve(model)
        key = self._net_key(network)
        if key not in self._structures:
            clustered = collapse_clusterable_blocks(network.graph)
            if clustered.is_line():
                self._structures[key] = Structure.LINE
            elif is_series_parallel(network.graph):
                self._structures[key] = Structure.FRONTIER
            else:
                self._structures[key] = Structure.DAG
        return self._structures[key]

    def _table_kind(self, model: str | Network, structure: str | Structure) -> Structure:
        """The cut kind whose table ``structure`` names (``auto`` resolved)."""
        chosen = Structure.coerce(structure)
        if chosen is Structure.AUTO:
            return self.structure_of(model)
        if chosen is Structure.PATHS:
            raise ValueError(
                "Alg. 3 plans per-path tables; only JPS plans them, "
                "with plan(structure='paths')"
            )
        return chosen

    def _planned_structure(
        self, network: Network, scheme: str, structure: str | Structure
    ) -> Structure:
        """What a ``scheme`` plan runs on: the table ``structure`` names,
        or Alg. 3's paths, which only JPS plans."""
        if scheme != "JPS" and scheme not in BASELINES:
            raise ValueError(
                f"unknown scheme {scheme!r} (use 'JPS', 'LO', 'CO' or 'PO')"
            )
        if scheme == "JPS" and structure == Structure.PATHS:
            return Structure.PATHS
        return self._table_kind(network, structure)

    def _traced(self, kind: str, model: str, build):
        """Wrap a cache build closure in an ``engine/build`` span.

        The span only appears on cache *misses* — a warm ``plan()``
        shows a plan span with no nested build, which is the cache
        working as intended.
        """

        def wrapped():
            with self.tracer.span(
                "engine/build", lane=("engine", "builds"), kind=kind, model=model
            ):
                return build()

        return wrapped

    # ------------------------------------------------------------------
    # the structure record and the per-channel table builder
    # ------------------------------------------------------------------
    def _cut_space(
        self,
        kind: Structure,
        network: Network,
        predictor: LayerPredictor | None,
        predictor_key,
    ) -> _CutSpace:
        """The ``kind`` record of ``network``, built once per (network,
        devices, predictor) and served to every channel and framing."""
        key = (kind.value,) + self._base_key(network, predictor, predictor_key)
        layer = kind + "_structure"

        def build() -> _CutSpace:
            if kind is Structure.LINE:
                return self._line_space(network, predictor)
            return self._graph_space(kind, network, predictor)

        return self._caches[layer].get_or_build(
            key, self._traced(layer, network.name, build)
        )

    def _line_space(
        self, network: Network, predictor: LayerPredictor | None
    ) -> _CutSpace:
        graph = linearize(network.graph)
        order = graph.line_order()
        f_steps = [
            node_mobile_time(graph.payload(v), self.mobile, predictor) for v in order
        ]
        cloud_steps = [node_mobile_time(graph.payload(v), self.cloud) for v in order]
        volumes = [graph.volume(a, b) for a, b in zip(order, order[1:])] + [0.0]
        return _CutSpace(
            model_name=network.name,
            positions=tuple(order),
            f=np.cumsum(f_steps),
            payloads=np.asarray(volumes, dtype=float),
            cloud=np.cumsum(cloud_steps),
            graph=graph,
            cuts=None,
        )

    def _graph_space(
        self, kind: Structure, network: Network, predictor: LayerPredictor | None
    ) -> _CutSpace:
        """The ``frontier`` or ``dag`` cut space, pruned and priced once.

        A ``frontier`` build of a graph that ``auto`` sends to ``dag``
        and whose blocks the row builder turns away (a huge branch
        product over few cuts) takes the ``dag`` kind's cut space and
        labels instead of walking every row.
        """
        graph = network.graph
        mobile_time = {
            v: node_mobile_time(graph.payload(v), self.mobile, predictor)
            for v in graph.node_ids
        }
        cloud_time = {v: node_mobile_time(graph.payload(v), self.cloud) for v in graph.node_ids}
        if kind is Structure.DAG or (
            self.structure_of(network) is Structure.DAG and not _fits_block_rows(graph)
        ):
            cuts = dag_pareto_cuts(graph, mobile_time.__getitem__)
            labels = unique_cut_labels(cuts)
        else:
            cuts = frontier_pareto_cuts(graph, mobile_time.__getitem__)
            labels = tuple(c.label for c in cuts)
        f, payloads, cloud = cut_columns(
            graph, cuts, mobile_time.__getitem__, cloud_time.__getitem__
        )
        return _CutSpace(
            model_name=f"{network.name}/{kind.value}",
            positions=labels,
            f=f,
            payloads=payloads,
            cloud=cloud,
            graph=None,
            cuts=tuple(cuts),
        )

    def _table(
        self,
        kind: Structure,
        network: Network,
        channel: Channel,
        predictor: LayerPredictor | None,
        predictor_key,
    ) -> PricedModel:
        """The ``kind`` record priced through ``channel``, memoized per
        channel.

        A :class:`Channel` prices every position at once with the
        pricing kernel's formula, bit for bit its ``uplink_time``; a
        duck-typed channel is asked per position. Nothing crosses the
        network at a zero payload, so its ``g`` is 0 either way.
        """
        # a Structure is a str: concatenating skips the Enum.value
        # descriptor on every warm lookup
        key = (
            ("table-" + kind,)
            + self._base_key(network, predictor, predictor_key)
            + (channel_fingerprint(channel),)
        )

        def build() -> PricedModel:
            space = self._cut_space(kind, network, predictor, predictor_key)
            if type(channel) is Channel:
                g = _uplink_times(
                    _wire_bits(space.payloads, channel.header_bytes, channel.protocol_overhead),
                    channel.setup_latency,
                    channel.uplink_bps,
                )
            else:
                g = np.array([channel.uplink_time(b) if b > 0 else 0.0 for b in space.payloads])
            table = CostTable(
                model_name=space.model_name,
                positions=space.positions,
                f=space.f.copy(),
                g=g,
                cloud=space.cloud.copy(),
                graph=space.graph,
            )
            return PricedModel(
                table=table, payloads=tuple(space.payloads.tolist()), cuts=space.cuts
            )

        return self._caches[kind + "_tables"].get_or_build(
            key, self._traced(kind + "_table", network.name, build)
        )

    # ------------------------------------------------------------------
    # per-channel tables
    # ------------------------------------------------------------------
    def line_table(
        self,
        model: str | Network,
        channel: Channel,
        predictor: LayerPredictor | None = None,
        predictor_key=None,
    ) -> CostTable:
        """The linearized (f, g, cloud) table, priced through ``channel``."""
        network = self.resolve(model)
        return self._table(Structure.LINE, network, channel, predictor, predictor_key).table

    def frontier_table(
        self,
        model: str | Network,
        channel: Channel,
        predictor: LayerPredictor | None = None,
        predictor_key=None,
    ) -> DagCutTable:
        """The Pareto-frontier table, priced through ``channel``.

        The exact series-parallel cut space, pruned to its (compute,
        transfer bytes) Pareto set in increasing-``f`` order and priced
        by :func:`repro.dag.partition.cut_columns`. The enumeration and
        dominance pruning are paid once per (network, devices,
        predictor), not per channel.
        """
        network = self.resolve(model)
        priced = self._table(Structure.FRONTIER, network, channel, predictor, predictor_key)
        return DagCutTable(table=priced.table, cuts=priced.cuts)

    def dag_table(
        self,
        model: str | Network,
        channel: Channel,
        predictor: LayerPredictor | None = None,
        predictor_key=None,
    ) -> DagCutTable:
        """The true-DAG Pareto cut table, priced through ``channel``.

        Same columns as :func:`repro.dag.partition.dag_cut_table` over
        the memoized cut space: shared crossing tensors counted once per
        tail, full cut uploads nothing, cloud column in running-max
        form. See ``docs/dag.md``.
        """
        network = self.resolve(model)
        priced = self._table(Structure.DAG, network, channel, predictor, predictor_key)
        return DagCutTable(table=priced.table, cuts=priced.cuts)

    def cost_table(
        self,
        model: str | Network,
        channel: Channel,
        structure: str | Structure = Structure.AUTO,
        predictor: LayerPredictor | None = None,
        predictor_key=None,
    ) -> CostTable:
        """The model's planning table under ``structure`` resolution."""
        network = self.resolve(model)
        kind = self._table_kind(network, structure)
        return self._table(kind, network, channel, predictor, predictor_key).table

    # ------------------------------------------------------------------
    # bandwidth-vectorized pricing
    # ------------------------------------------------------------------
    def pricing_kernel(
        self,
        model: str | Network,
        *,
        structure: str | Structure = Structure.AUTO,
        predictor: LayerPredictor | None = None,
        predictor_key=None,
        setup_latency: float = DEFAULT_SETUP_LATENCY,
        header_bytes: float = DEFAULT_HEADER_BYTES,
        protocol_overhead: float = 1.05,
    ) -> PricingKernel:
        """The memoized bandwidth-independent kernel of one model + framing.

        The single lookup path behind :meth:`priced_table`,
        :meth:`plan_batch` and the fleet's EFT scorer: one
        ``pricing_kernels`` cache lookup per call, which is what the
        engine's hit/miss counters count. The framing is validated here
        with :class:`~repro.net.channel.Channel`'s rules, so no caller
        can price an upload as free (``protocol_overhead <= 0``) or at a
        negative or non-finite cost.

        A zoo-name call without a predictor remembers the content key its
        arguments resolved to, so a repeat (the EFT scorer's per-server
        lookups) goes straight to the cache: one counted hit that
        refreshes recency, without re-running the validation, structure
        resolution and fingerprinting. A repeat whose kernel was evicted
        takes the full path, which counts the miss and rebuilds it.
        """
        raw = None
        if predictor is None and predictor_key is None and isinstance(model, str):
            raw = (model, structure, setup_latency, header_bytes, protocol_overhead)
            kernel = self._caches["pricing_kernels"].get(self._kernel_keys.get(raw))
            if kernel is not None:
                return kernel
        require_finite(setup_latency, "setup_latency")
        require_non_negative(setup_latency, "setup_latency")
        require_finite(header_bytes, "header_bytes")
        require_non_negative(header_bytes, "header_bytes")
        require_positive(protocol_overhead, "protocol_overhead")
        network = self.resolve(model)
        kind = self._table_kind(network, structure)
        key = (
            ("pricing", kind.value)
            + self._base_key(network, predictor, predictor_key)
            + (setup_latency, header_bytes, protocol_overhead)
        )

        def build() -> PricingKernel:
            space = self._cut_space(kind, network, predictor, predictor_key)
            return PricingKernel(
                model_name=space.model_name,
                positions=space.positions,
                f=space.f,
                cloud=space.cloud,
                payload_bytes=space.payloads,
                wire_bits=_wire_bits(space.payloads, header_bytes, protocol_overhead),
                setup_latency=setup_latency,
                graph=space.graph,
                cuts=space.cuts,
            )

        if raw is not None:
            if len(self._kernel_keys) >= self.max_entries:
                self._kernel_keys.clear()  # bounded like the cache it keys into
            self._kernel_keys[raw] = key
        return self._caches["pricing_kernels"].get_or_build(
            key, self._traced("pricing_kernel", network.name, build)
        )

    def priced_table(
        self,
        model: str | Network,
        uplink_bps: float,
        structure: str | Structure = Structure.AUTO,
        predictor: LayerPredictor | None = None,
        predictor_key=None,
        setup_latency: float = DEFAULT_SETUP_LATENCY,
        header_bytes: float = DEFAULT_HEADER_BYTES,
        protocol_overhead: float = 1.05,
    ) -> PricedModel:
        """The model's cost table at one uplink rate, without a Channel.

        Bit-identical to :meth:`cost_table` with a channel carrying the
        same framing, but priced from the memoized bandwidth-independent
        kernel — the serving gateway replans through this, paying one
        cache lookup per (model, framing) instead of one table build per
        bandwidth estimate.
        """
        kernel = self.pricing_kernel(
            model,
            structure=structure,
            predictor=predictor,
            predictor_key=predictor_key,
            setup_latency=setup_latency,
            header_bytes=header_bytes,
            protocol_overhead=protocol_overhead,
        )
        return PricedModel(
            table=kernel.table_at(uplink_bps),
            payloads=tuple(kernel.payload_bytes.tolist()),
            cuts=kernel.cuts,
        )

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def plan(
        self,
        model: str | Network,
        n: int,
        channel: Channel,
        scheme: str = "JPS",
        structure: str | Structure = Structure.AUTO,
        split: str | SplitMode = SplitMode.EXACT,
        predictor: LayerPredictor | None = None,
        predictor_key=None,
    ) -> Schedule:
        """Plan ``n`` jobs of ``model`` over ``channel``.

        ``scheme`` is ``"JPS"`` or a baseline (``"LO"``, ``"CO"``,
        ``"PO"``) and ``structure`` the table every scheme plans on, so
        a ``compare()`` sweep reuses one structure build across schemes.
        Only JPS plans ``structure="paths"`` (Alg. 3's per-path tables);
        a baseline given it raises ``ValueError``.
        """
        n = require_integer(n, "n")
        network = self.resolve(model)
        with self.tracer.span(
            "engine/plan",
            lane=("engine", "plans"),
            model=network.name,
            n=n,
            scheme=scheme,
        ):
            chosen = self._planned_structure(network, scheme, structure)
            return self._plan(
                network, n, channel, scheme, chosen, split, predictor, predictor_key
            )

    def plan_batch(
        self,
        model: str | Network,
        n: int,
        uplink_bps: Sequence[float],
        scheme: str = "JPS",
        structure: str | Structure = Structure.AUTO,
        split: str | SplitMode = SplitMode.EXACT,
        predictor: LayerPredictor | None = None,
        predictor_key=None,
        setup_latency: float = DEFAULT_SETUP_LATENCY,
        header_bytes: float = DEFAULT_HEADER_BYTES,
        protocol_overhead: float = 1.05,
    ) -> list[Schedule]:
        """Plan ``n`` jobs at every uplink rate of a bandwidth vector.

        Since ``g`` scales affinely in ``1/B`` for a fixed table, one
        memoized pricing kernel serves the whole vector and each rate
        pays only the scheme's search. Output is bit-identical to
        calling :meth:`plan` once per bandwidth with an equivalently
        framed channel and the same ``scheme`` and ``structure`` — the
        sweep harnesses and the gateway go through here to amortize
        cache lookups to one content-addressed key per model.
        """
        n = require_integer(n, "n")
        network = self.resolve(model)
        rates = [float(rate) for rate in uplink_bps]
        with self.tracer.span(
            "engine/plan_batch",
            lane=("engine", "plans"),
            model=network.name,
            n=n,
            scheme=scheme,
            cells=len(rates),
        ):
            chosen = self._planned_structure(network, scheme, structure)
            if chosen is Structure.PATHS:
                # Alg. 3's path conversion is channel-coupled; no batched kernel
                framing = {
                    "setup_latency": setup_latency,
                    "header_bytes": int(header_bytes),
                    "protocol_overhead": protocol_overhead,
                }
                channels = [
                    Channel(shaper=TrafficShaper(rate, 2 * rate), **framing) for rate in rates
                ]
                return [
                    self._plan(network, n, c, scheme, chosen, split, predictor, predictor_key)
                    for c in channels
                ]
            kernel = self.pricing_kernel(
                network,
                structure=chosen,
                predictor=predictor,
                predictor_key=predictor_key,
                setup_latency=setup_latency,
                header_bytes=header_bytes,
                protocol_overhead=protocol_overhead,
            )
            cuts = kernel.cuts
            return [
                self._schedule(network, n, chosen, kernel.table_at(rate), cuts, scheme, split)
                for rate in rates
            ]

    def _plan(
        self,
        network: Network,
        n: int,
        channel: Channel,
        scheme: str,
        chosen: Structure,
        split: str | SplitMode,
        predictor: LayerPredictor | None,
        predictor_key,
    ) -> Schedule:
        if chosen is Structure.PATHS:
            from repro.core.general import alg3_schedule_from_plans

            path_plans, info = self._alg3_plans(network, channel, predictor, predictor_key)
            return alg3_schedule_from_plans(
                network, self.mobile, path_plans, info, n, predictor
            )
        priced = self._table(chosen, network, channel, predictor, predictor_key)
        return self._schedule(network, n, chosen, priced.table, priced.cuts, scheme, split)

    @staticmethod
    def _schedule(
        network: Network,
        n: int,
        chosen: Structure,
        table: CostTable,
        cuts: tuple[Cut, ...] | None,
        scheme: str,
        split: str | SplitMode,
    ) -> Schedule:
        """The one dispatch from a priced table to a schedule.

        ``scheme`` picks the schedule: a baseline's, JPS on the table
        (with the frontier cuts attached), or the exact multiset optimum
        on a DAG table.
        """
        if scheme in BASELINES:
            return BASELINES[scheme](table, n)
        if chosen is Structure.DAG:
            return dag_schedule_from_table(table, cuts, n, model=network.name)
        schedule = jps_line(table, n, split=split)
        if cuts is None:
            return schedule
        return attach_frontier_cuts(network.name, schedule, cuts)

    def _alg3_plans(
        self,
        network: Network,
        channel: Channel,
        predictor: LayerPredictor | None,
        predictor_key,
    ) -> tuple:
        from repro.core.general import alg3_partition

        key = (
            ("alg3",)
            + self._base_key(network, predictor, predictor_key)
            + (channel_fingerprint(channel),)
        )
        return self._caches["alg3_plans"].get_or_build(
            key,
            self._traced(
                "alg3_plans",
                network.name,
                lambda: alg3_partition(
                    network, self.mobile, self.cloud, channel, predictor
                ),
            ),
        )

    def compare(
        self,
        model: str | Network,
        n: int,
        channel: Channel,
        schemes: list[str] | None = None,
    ) -> dict[str, Schedule]:
        """All schemes side by side on shared memoized tables."""
        chosen = schemes or ["LO", "CO", "PO", "JPS"]
        return {scheme: self.plan(model, n, channel, scheme=scheme) for scheme in chosen}

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, dict[str, float]]:
        """Hit/miss/eviction counters and sizes of every cache layer."""
        return {
            layer: {**cache.stats.as_dict(), "entries": len(cache)}
            for layer, cache in self._caches.items()
        }

    def stats_snapshot(self) -> dict:
        """Plain-dict cache statistics: per-layer counters plus totals.

        The stable observability surface — gateway metrics, benchmarks,
        and reports consume this instead of touching cache objects. The
        ``totals`` hit rate pools lookups across every layer.
        """
        layers = self.stats()
        totals = {
            key: sum(layer[key] for layer in layers.values())
            for key in ("hits", "misses", "evictions", "entries")
        }
        lookups = totals["hits"] + totals["misses"]
        totals["hit_rate"] = totals["hits"] / lookups if lookups else 0.0
        return {"layers": layers, "totals": totals}

    def to_metrics(self, registry: MetricsRegistry) -> MetricsRegistry:
        """Publish the cache statistics as gauges on ``registry``.

        Totals land on ``engine_cache_<stat>`` gauges and each layer on
        ``engine_cache_<stat>{layer="..."}``, so one Prometheus
        exposition shows planner cache health next to the serving
        counters. Gauges are *set*, not incremented — calling this
        again after more planning overwrites with fresh values.
        """
        snapshot = self.stats_snapshot()
        for stat, value in snapshot["totals"].items():
            registry.gauge(f"engine_cache_{stat}").set(value)
        for layer, stats in snapshot["layers"].items():
            for stat, value in stats.items():
                if stat == "hit_rate":
                    continue
                registry.gauge(f"engine_cache_{stat}", layer=layer).set(value)
        return registry

    def clear(self) -> None:
        """Drop all memoized state (statistics keep accumulating)."""
        for cache in self._caches.values():
            cache.clear()
        self._kernel_keys.clear()
        self._structures.clear()
        self._fingerprints.clear()
        self._networks.clear()
