"""The planning engine: memoized cost intermediates behind one ``plan()``.

Every JPS call decomposes into a *structure* phase (linearize the graph
or enumerate + Pareto-prune the frontier cut space; run Alg. 3's path
conversion) and a *search* phase (binary search + two-type split +
Johnson sort). The structure phase dominates wall time — GoogLeNet's
frontier enumeration visits thousands of cuts — yet its inputs change
rarely: the same (network, devices, predictor) tuple is replanned for
dozens of bandwidths and job counts in every experiment sweep.

:class:`PlanningEngine` memoizes three levels of intermediates behind
content-addressed keys (:mod:`repro.engine.keys`):

* **bandwidth-independent structure** — the linearized line order with
  cumulative ``f``/``cloud`` and edge volumes, or a Pareto cut set with
  per-cut compute/bytes/cloud-rest. Frontier and DAG cut sets are both
  downward-closed node sets and share one builder; they differ only in
  how the candidates are enumerated. Dominance is decided on (compute
  time, transfer bytes), both bandwidth-invariant, so one enumeration
  serves every channel.
* **per-channel cost tables** — the structure priced through a concrete
  channel's ``uplink_time``; an LRU bound keeps sweep-heavy workloads
  from growing without limit.
* **Alg. 3 path plans** — per-(channel) path cuts, replayed through the
  deduplicated flow-shop recurrence for any job count.

A warm ``plan()`` therefore costs only the O(log k) search and the
Johnson sort, which is what the paper's Fig. 12(d) claims the deployed
scheduler pays per decision. The engine is the one planner behind the
``repro.api`` facade, the serving stack and
:class:`~repro.experiments.runner.ExperimentEnv` (every figure harness);
the uncached :func:`repro.core.joint.jps` path is its reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from typing import Sequence

from repro.core.baselines import cloud_only, local_only, partition_only
from repro.core.joint import (
    FrontierTable,
    SplitMode,
    Structure,
    jps_line,
    jps_line_fast,
)
from repro.core.plans import Schedule
from repro.dag.cuts import Cut, enumerate_frontier_cuts, prune_dominated
from repro.dag.graph import Dag
from repro.dag.partition import (
    DagCutTable,
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
from repro.utils.validation import require_non_negative, require_positive

__all__ = ["PlanningEngine", "PricedModel", "PricingKernel"]

#: Baseline schemes the engine plans besides JPS.
BASELINES = {"LO": local_only, "CO": cloud_only, "PO": partition_only}


def _wrap_frontier_schedule(
    model_name: str,
    schedule: Schedule,
    cuts: tuple[Cut, ...],
    method: str = "JPS-frontier",
) -> Schedule:
    """Re-attach concrete graph cuts to a schedule built on a cut-backed table."""
    jobs = tuple(
        replace(
            plan,
            model=model_name,  # the table's "/frontier" suffix is internal
            mobile_nodes=cuts[plan.cut_position].mobile,
        )
        for plan in schedule.jobs
    )
    return Schedule(
        jobs=jobs,
        makespan=schedule.makespan,
        method=method,
        metadata={**schedule.metadata, "num_pareto_cuts": len(cuts)},
    )


@dataclass(frozen=True)
class _LineStructure:
    """Bandwidth-independent facts of a linearized model."""

    graph: Dag                      # the clustered line graph (for mobile sets)
    order: tuple[str, ...]
    f: np.ndarray                   # cumulative mobile compute
    cloud: np.ndarray               # cumulative cloud compute
    volumes: np.ndarray             # inter-position tensor bytes, 0 at the end


@dataclass(frozen=True)
class _CutStructure:
    """Bandwidth-independent Pareto cut data of a non-line model.

    Both cut spaces are downward-closed node sets (ideals) of the
    original graph, priced on the same columns. The ``frontier`` kind
    enumerates a series-parallel graph's frontier cuts exactly; the
    ``dag`` kind takes :func:`repro.dag.partition.dag_pareto_cuts`,
    which also covers graphs the frontier enumeration rejects and
    records how it generated the space in ``mode``/``states``.
    """

    cuts: tuple[Cut, ...]
    labels: tuple[str, ...]
    f: np.ndarray                   # mobile compute of each cut
    payloads: np.ndarray            # upload bytes, 0 for the full (all-local) cut
    cloud: np.ndarray               # running-max cloud time of the mobile part
    mode: str | None = None
    states: int | None = None


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

    def _g(self, rates: float | np.ndarray) -> np.ndarray:
        # a rate, or a column of rates for one g row per rate
        return np.where(self.wire_bits > 0, self.setup_latency + self.wire_bits / rates, 0.0)

    def g_at(self, uplink_bps: float) -> np.ndarray:
        """The ``g`` column at one uplink rate (bit-exact channel pricing)."""
        require_positive(uplink_bps, "uplink_bps")
        return self._g(uplink_bps)

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
        if not (rates > 0).all():
            raise ValueError(f"uplink rates must be > 0, got {rates.tolist()!r}")
        g = self._g(rates[:, None])
        totals = self.f + g
        if include_cloud:
            totals = totals + self.rest
        cut = totals.argmin(axis=1)
        f = self.f[cut]
        return cut, f, f + g[np.arange(len(rates)), cut] + self.rest[cut]


@dataclass(frozen=True)
class PricedModel:
    """A cost table priced at one uplink rate, plus execution metadata.

    ``payloads[i]`` is the upload payload (bytes) behind position ``i``
    and, for frontier models, ``cuts[i]`` the concrete graph cut — what
    the serving gateway needs to simulate transfers without re-deriving
    structure per replan.
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
    :class:`Schedule` the uncached :func:`repro.core.joint.jps` path
    would — the caches are exact, not approximate.

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
        self._fingerprints: dict[int, str] = {}
        self._structures: dict[str, Structure] = {}
        self._device_key = (
            device_fingerprint(self.mobile),
            device_fingerprint(self.cloud),
        )
        self._lines: LRUCache[_LineStructure] = LRUCache(self.max_entries)
        self._frontiers: LRUCache[_CutStructure] = LRUCache(self.max_entries)
        self._tables: LRUCache[CostTable] = LRUCache(self.max_entries)
        self._frontier_tables: LRUCache[FrontierTable] = LRUCache(self.max_entries)
        self._alg3: LRUCache[tuple] = LRUCache(self.max_entries)
        self._pricing: LRUCache[PricingKernel] = LRUCache(self.max_entries)
        self._dags: LRUCache[_CutStructure] = LRUCache(self.max_entries)
        self._dag_tables: LRUCache[DagCutTable] = LRUCache(self.max_entries)

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
        # fingerprinting walks every node; cache it per network object
        marker = id(network)
        if marker not in self._fingerprints:
            self._fingerprints[marker] = network_fingerprint(network)
        return self._fingerprints[marker]

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
    # memoized structure builders
    # ------------------------------------------------------------------
    def _line_structure(
        self, network: Network, predictor: LayerPredictor | None, predictor_key
    ) -> _LineStructure:
        key = ("line",) + self._base_key(network, predictor, predictor_key)

        def build() -> _LineStructure:
            graph = linearize(network.graph)
            order = graph.line_order()
            f_steps = [
                node_mobile_time(graph.payload(v), self.mobile, predictor)
                for v in order
            ]
            cloud_steps = [
                node_mobile_time(graph.payload(v), self.cloud) for v in order
            ]
            volumes = [graph.volume(a, b) for a, b in zip(order, order[1:])] + [0.0]
            return _LineStructure(
                graph=graph,
                order=tuple(order),
                f=np.cumsum(f_steps),
                cloud=np.cumsum(cloud_steps),
                volumes=np.asarray(volumes),
            )

        return self._lines.get_or_build(
            key, self._traced("line_structure", network.name, build)
        )

    def _cut_structure(
        self,
        kind: str,
        network: Network,
        predictor: LayerPredictor | None,
        predictor_key,
    ) -> _CutStructure:
        """The ``frontier`` or ``dag`` cut space, pruned and priced once.

        Dominance compares (compute time, transfer bytes), both
        independent of the channel, so one structure serves every
        bandwidth.
        """
        key = (kind,) + self._base_key(network, predictor, predictor_key)

        def build() -> _CutStructure:
            graph = network.graph
            mobile_time = {
                v: node_mobile_time(graph.payload(v), self.mobile, predictor)
                for v in graph.node_ids
            }
            cloud_time = {
                v: node_mobile_time(graph.payload(v), self.cloud)
                for v in graph.node_ids
            }
            info: dict = {}
            if kind == "dag":
                cuts, info = dag_pareto_cuts(graph, mobile_time.__getitem__)
                labels = unique_cut_labels(cuts)
            else:
                candidates = enumerate_frontier_cuts(graph)
                compute_of = {
                    c.mobile: sum(mobile_time[v] for v in c.mobile) for c in candidates
                }
                cuts = prune_dominated(candidates, compute_of)
                cuts.sort(key=lambda c: compute_of[c.mobile])
                labels = tuple(c.label for c in cuts)
            total_cloud = sum(cloud_time.values())
            rests = np.array(
                [total_cloud - sum(cloud_time[v] for v in c.mobile) for c in cuts]
            )
            return _CutStructure(
                cuts=tuple(cuts),
                labels=labels,
                f=np.array([sum(mobile_time[v] for v in c.mobile) for c in cuts]),
                # the full cut keeps everything mobile: nothing crosses
                payloads=np.array(
                    [
                        0.0 if len(c.mobile) == len(graph) else float(c.transfer_bytes)
                        for c in cuts
                    ]
                ),
                # the cloud time of the mobile part is not exactly monotone
                # across Pareto cuts; the running max keeps CostTable's invariant
                cloud=np.maximum.accumulate(rests.max() - rests),
                mode=info.get("mode"),
                states=info.get("states"),
            )

        cache = self._dags if kind == "dag" else self._frontiers
        return cache.get_or_build(
            key, self._traced(f"{kind}_structure", network.name, build)
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
        key = (
            ("table-line",)
            + self._base_key(network, predictor, predictor_key)
            + (channel_fingerprint(channel),)
        )

        def build() -> CostTable:
            structure = self._line_structure(network, predictor, predictor_key)
            g = np.asarray([channel.uplink_time(v) for v in structure.volumes])
            return CostTable(
                model_name=network.name,
                positions=structure.order,
                f=structure.f.copy(),
                g=g,
                cloud=structure.cloud.copy(),
                graph=structure.graph,
            )

        return self._tables.get_or_build(
            key, self._traced("line_table", network.name, build)
        )

    def frontier_table(
        self,
        model: str | Network,
        channel: Channel,
        predictor: LayerPredictor | None = None,
        predictor_key=None,
    ) -> FrontierTable:
        """The Pareto-frontier table, priced through ``channel``.

        Identical to :func:`repro.core.joint.frontier_table` output —
        same cuts in the same order, same (f, g, cloud) — but the cut
        enumeration and dominance pruning are paid once per
        (network, devices, predictor) rather than per call.
        """
        return self._cut_table("frontier", model, channel, predictor, predictor_key)

    def dag_table(
        self,
        model: str | Network,
        channel: Channel,
        predictor: LayerPredictor | None = None,
        predictor_key=None,
    ) -> DagCutTable:
        """The true-DAG Pareto cut table, priced through ``channel``.

        Same pricing as :func:`repro.dag.partition.dag_cut_table` over
        the memoized cut space: shared crossing tensors counted once per
        tail, full cut uploads nothing, cloud column in running-max
        form. See ``docs/dag.md``.
        """
        return self._cut_table("dag", model, channel, predictor, predictor_key)

    def _cut_table(
        self,
        kind: str,
        model: str | Network,
        channel: Channel,
        predictor: LayerPredictor | None,
        predictor_key,
    ) -> FrontierTable | DagCutTable:
        network = self.resolve(model)
        key = (
            (f"table-{kind}",)
            + self._base_key(network, predictor, predictor_key)
            + (channel_fingerprint(channel),)
        )

        def build() -> FrontierTable | DagCutTable:
            structure = self._cut_structure(kind, network, predictor, predictor_key)
            table = CostTable(
                model_name=f"{network.name}/{kind}",
                positions=structure.labels,
                f=structure.f.copy(),
                g=np.array(
                    [channel.uplink_time(b) if b > 0 else 0.0 for b in structure.payloads]
                ),
                cloud=structure.cloud.copy(),
                graph=None,
            )
            if kind == "dag":
                return DagCutTable(
                    table=table,
                    cuts=structure.cuts,
                    mode=structure.mode,
                    states=structure.states,
                )
            return FrontierTable(table=table, cuts=structure.cuts)

        cache = self._dag_tables if kind == "dag" else self._frontier_tables
        return cache.get_or_build(
            key, self._traced(f"{kind}_table", network.name, build)
        )

    def cost_table(
        self,
        model: str | Network,
        channel: Channel,
        structure: str | Structure = Structure.AUTO,
        predictor: LayerPredictor | None = None,
        predictor_key=None,
    ) -> CostTable:
        """The model's planning table under ``structure`` resolution."""
        chosen = self._resolve_structure(model, structure)
        if chosen is Structure.LINE:
            return self.line_table(model, channel, predictor, predictor_key)
        if chosen is Structure.PATHS:
            raise ValueError("Alg. 3 plans per-path tables; use plan(structure='paths')")
        return self._cut_table(
            chosen.value, model, channel, predictor, predictor_key
        ).table

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
        negative cost.
        """
        require_non_negative(setup_latency, "setup_latency")
        require_non_negative(header_bytes, "header_bytes")
        require_positive(protocol_overhead, "protocol_overhead")
        network = self.resolve(model)
        chosen = self._resolve_structure(network, structure)
        if chosen is Structure.PATHS:
            raise ValueError("Alg. 3 plans per-path tables; use plan(structure='paths')")
        key = (
            ("pricing", chosen.value)
            + self._base_key(network, predictor, predictor_key)
            + (setup_latency, header_bytes, protocol_overhead)
        )

        def build() -> PricingKernel:
            if chosen is Structure.LINE:
                line = self._line_structure(network, predictor, predictor_key)
                model_name = network.name
                positions, f, cloud = line.order, line.f, line.cloud
                payloads = line.volumes.astype(float)
                graph, cuts = line.graph, None
            else:
                space = self._cut_structure(
                    chosen.value, network, predictor, predictor_key
                )
                model_name = f"{network.name}/{chosen.value}"
                positions, f, cloud = space.labels, space.f, space.cloud
                payloads = space.payloads
                graph, cuts = None, space.cuts
            # same operation order as Channel.uplink_time, element by element
            wire_bits = np.where(
                payloads > 0,
                ((payloads + header_bytes) * protocol_overhead) * BITS_PER_BYTE,
                0.0,
            )
            return PricingKernel(
                model_name=model_name,
                positions=positions,
                f=f,
                cloud=cloud,
                payload_bytes=payloads,
                wire_bits=wire_bits,
                setup_latency=setup_latency,
                graph=graph,
                cuts=cuts,
            )

        return self._pricing.get_or_build(
            key, self._traced("pricing_kernel", network.name, build)
        )

    def _resolve_structure(
        self, model: str | Network, structure: str | Structure
    ) -> Structure:
        chosen = Structure.coerce(structure)
        if chosen is Structure.AUTO:
            chosen = self.structure_of(model)
        return chosen

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
        wrap_frontier: bool = True,
    ) -> list[Schedule]:
        """Plan ``n`` jobs at every uplink rate of a bandwidth vector.

        Since ``g`` scales affinely in ``1/B`` for a fixed table, one
        memoized pricing kernel serves the whole vector; per rate the
        Alg. 2 crossing is one ``np.searchsorted`` over ``f - g`` and
        the exact two-type split one matrix kernel
        (:func:`~repro.core.joint.jps_line_fast`). Output is
        bit-identical to calling :meth:`plan` once per bandwidth with an
        equivalently framed channel — the sweep harnesses and the
        gateway go through here to amortize cache lookups to one
        content-addressed key per model.

        ``wrap_frontier=False`` returns the raw line-shaped schedules on
        frontier tables (method ``"JPS"``), matching what the experiment
        harnesses historically recorded; the default matches
        :meth:`plan`'s ``"JPS-frontier"`` wrapping with concrete cuts.
        """
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
            return self._plan_batch(
                network,
                n,
                rates,
                scheme,
                structure,
                split,
                predictor,
                predictor_key,
                setup_latency,
                header_bytes,
                protocol_overhead,
                wrap_frontier,
            )

    def _plan_batch(
        self,
        network: Network,
        n: int,
        rates: list[float],
        scheme: str,
        structure: str | Structure,
        split: str | SplitMode,
        predictor: LayerPredictor | None,
        predictor_key,
        setup_latency: float,
        header_bytes: float,
        protocol_overhead: float,
        wrap_frontier: bool,
    ) -> list[Schedule]:
        chosen = self._resolve_structure(network, structure)
        if chosen is Structure.PATHS:
            # Alg. 3's path conversion is channel-coupled; no batched kernel
            return [
                self._plan(
                    network,
                    n,
                    Channel(
                        shaper=TrafficShaper(uplink_bps=rate, downlink_bps=2 * rate),
                        setup_latency=setup_latency,
                        header_bytes=int(header_bytes),
                        protocol_overhead=protocol_overhead,
                    ),
                    scheme,
                    chosen,
                    split,
                    predictor,
                    predictor_key,
                )
                for rate in rates
            ]
        if scheme not in BASELINES and scheme != "JPS":
            raise ValueError(
                f"unknown scheme {scheme!r} (use 'JPS', 'LO', 'CO' or 'PO')"
            )
        kernel = self.pricing_kernel(
            network,
            structure=chosen,
            predictor=predictor,
            predictor_key=predictor_key,
            setup_latency=setup_latency,
            header_bytes=header_bytes,
            protocol_overhead=protocol_overhead,
        )
        schedules: list[Schedule] = []
        for rate in rates:
            table = kernel.table_at(rate)
            if scheme in BASELINES:
                schedules.append(BASELINES[scheme](table, n))
                continue
            if chosen is Structure.DAG:
                assert kernel.cuts is not None
                schedules.append(
                    dag_schedule_from_table(table, kernel.cuts, n, model=network.name)
                )
                continue
            schedule = jps_line_fast(table, n, split=split)
            if chosen is Structure.FRONTIER and wrap_frontier:
                assert kernel.cuts is not None
                schedule = _wrap_frontier_schedule(network.name, schedule, kernel.cuts)
            schedules.append(schedule)
        return schedules

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
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
        return self._alg3.get_or_build(
            key,
            self._traced(
                "alg3_plans",
                network.name,
                lambda: alg3_partition(
                    network, self.mobile, self.cloud, channel, predictor
                ),
            ),
        )

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
        ``"PO"``). Baselines plan on the same memoized table, so a
        ``compare()`` sweep reuses one structure build across schemes.
        """
        network = self.resolve(model)
        with self.tracer.span(
            "engine/plan",
            lane=("engine", "plans"),
            model=network.name,
            n=n,
            scheme=scheme,
        ):
            return self._plan(
                network, n, channel, scheme, structure, split, predictor, predictor_key
            )

    def _plan(
        self,
        network: Network,
        n: int,
        channel: Channel,
        scheme: str,
        structure: str | Structure,
        split: str | SplitMode,
        predictor: LayerPredictor | None,
        predictor_key,
    ) -> Schedule:
        if scheme in BASELINES:
            table = self.cost_table(
                network, channel, Structure.AUTO, predictor, predictor_key
            )
            return BASELINES[scheme](table, n)
        if scheme != "JPS":
            raise ValueError(
                f"unknown scheme {scheme!r} (use 'JPS', 'LO', 'CO' or 'PO')"
            )

        chosen = self._resolve_structure(network, structure)
        if chosen is Structure.LINE:
            table = self.line_table(network, channel, predictor, predictor_key)
            return jps_line(table, n, split=split)
        if chosen is Structure.FRONTIER:
            frontier = self.frontier_table(network, channel, predictor, predictor_key)
            schedule = jps_line(frontier.table, n, split=split)
            return _wrap_frontier_schedule(network.name, schedule, frontier.cuts)
        if chosen is Structure.DAG:
            dct = self.dag_table(network, channel, predictor, predictor_key)
            return dag_schedule_from_table(dct.table, dct.cuts, n, model=network.name)
        from repro.core.general import alg3_schedule_from_plans

        path_plans, info = self._alg3_plans(network, channel, predictor, predictor_key)
        return alg3_schedule_from_plans(
            network, self.mobile, path_plans, info, n, predictor
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
        caches = {
            "line_structure": self._lines,
            "frontier_structure": self._frontiers,
            "dag_structure": self._dags,
            "line_tables": self._tables,
            "frontier_tables": self._frontier_tables,
            "dag_tables": self._dag_tables,
            "alg3_plans": self._alg3,
            "pricing_kernels": self._pricing,
        }
        return {
            name: {**cache.stats.as_dict(), "entries": len(cache)}
            for name, cache in caches.items()
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
        for cache in (
            self._lines,
            self._frontiers,
            self._dags,
            self._tables,
            self._frontier_tables,
            self._dag_tables,
            self._alg3,
            self._pricing,
        ):
            cache.clear()
        self._structures.clear()
        self._fingerprints.clear()
        self._networks.clear()
