"""Shared experiment environment: one device pair, one planner.

Every figure/table harness runs on the same :class:`ExperimentEnv` so
the schemes are compared under identical cost models. The environment
holds no planning state of its own: models, the line/general
classification, cost tables and schedules all come from its lazily
built :class:`~repro.engine.PlanningEngine`. The engine caches the
bandwidth-independent structure of each model — the linearized graph,
or the Pareto cut set of a general DAG, whose dominance relation is
bandwidth-invariant because upload time is monotone in payload bytes —
and prices it per bandwidth cheaply, which keeps the Fig. 13 sweep over
80 bandwidths fast. A harness cell is therefore the same plan that
``repro plan`` prints for that model and bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.joint import Structure
from repro.core.plans import Schedule
from repro.engine import PlanningEngine
from repro.net.bandwidth import BandwidthPreset
from repro.net.channel import Channel, as_channel
from repro.nn.network import Network
from repro.obs.tracer import NullTracer, Tracer
from repro.profiling.device import DeviceModel, gtx1080_server, raspberry_pi_4
from repro.profiling.latency import CostTable

__all__ = ["ExperimentEnv", "SCHEMES", "EXPERIMENT_MODELS"]

#: The four models of the paper's evaluation (§6.1), in figure order.
EXPERIMENT_MODELS = ["alexnet", "googlenet", "mobilenet-v2", "resnet18"]

#: Scheme labels in the paper's legend order.
SCHEMES = ["LO", "CO", "PO", "JPS"]


@dataclass
class ExperimentEnv:
    """Deterministic experiment context over one planning engine."""

    mobile: DeviceModel = field(default_factory=raspberry_pi_4)
    cloud: DeviceModel = field(default_factory=gtx1080_server)
    seed: int = 0
    tracer: Tracer | NullTracer = field(default_factory=NullTracer)

    def __post_init__(self) -> None:
        self._engine: PlanningEngine | None = None

    @property
    def engine(self) -> PlanningEngine:
        """The lazily-built planning engine on this env's device pair."""
        if self._engine is None:
            self._engine = PlanningEngine(
                mobile=self.mobile, cloud=self.cloud, tracer=self.tracer
            )
        return self._engine

    # ------------------------------------------------------------------
    def network(self, name: str) -> Network:
        return self.engine.resolve(name)

    def channel(self, bandwidth: BandwidthPreset | float) -> Channel:
        """A channel at a preset or a raw uplink rate in Mbps."""
        return as_channel(bandwidth)

    def treats_as_line(self, name: str) -> bool:
        """True if virtual-block clustering linearizes the model (§3.2)."""
        return self.engine.structure_of(name) is Structure.LINE

    def cost_table(self, name: str, bandwidth: BandwidthPreset | float) -> CostTable:
        """The model's planning table at the given bandwidth.

        Line-clusterable models get the clustered line table; other
        series-parallel graphs (GoogLeNet) the Pareto-frontier table and
        the rest (Inception-v4) the true-DAG cut table, which every
        scheme (LO, CO, PO, JPS) consumes identically — PO on a cut
        table is the DAG generalization of the Neurosurgeon cut.
        """
        return self.engine.cost_table(name, self.channel(bandwidth))

    # ------------------------------------------------------------------
    def run_scheme(
        self, name: str, bandwidth: BandwidthPreset | float, n: int, scheme: str
    ) -> Schedule:
        """One (model, bandwidth, scheme) cell."""
        with self.tracer.span(
            "experiment/cell",
            lane=("experiments", scheme),
            model=name,
            bandwidth=str(bandwidth),
            n=n,
            scheme=scheme,
        ):
            return self._plan(name, [bandwidth], n, scheme)[0]

    def run_scheme_batch(
        self,
        name: str,
        bandwidths: list[BandwidthPreset | float],
        n: int,
        scheme: str,
    ) -> list[Schedule]:
        """One scheme across a whole bandwidth vector, vectorized.

        The whole vector prices one cached bandwidth-independent kernel
        and each rate pays only the ``searchsorted`` crossing + matrix
        split; :meth:`run_scheme` is the one-cell case of the same call.
        """
        with self.tracer.span(
            "experiment/batch",
            lane=("experiments", scheme),
            model=name,
            n=n,
            scheme=scheme,
            cells=len(bandwidths),
        ):
            return self._plan(name, bandwidths, n, scheme)

    def _plan(
        self,
        name: str,
        bandwidths: list[BandwidthPreset | float],
        n: int,
        scheme: str,
    ) -> list[Schedule]:
        # wrap_frontier=False keeps the harnesses' historical plain "JPS"
        # schedules on frontier tables
        split = "ratio" if scheme == "JPS-ratio" else "exact"
        chosen = "JPS" if scheme == "JPS-ratio" else scheme
        return self.engine.plan_batch(
            name,
            n,
            [self.channel(b).uplink_bps for b in bandwidths],
            scheme=chosen,
            split=split,
            wrap_frontier=False,
        )

    def scheme_grid(
        self,
        models: list[str],
        bandwidth: BandwidthPreset | float,
        n: int,
        schemes: list[str] | None = None,
    ) -> dict[str, dict[str, Schedule]]:
        """{model: {scheme: Schedule}} for one bandwidth."""
        chosen = schemes or SCHEMES
        return {
            model: {scheme: self.run_scheme(model, bandwidth, n, scheme) for scheme in chosen}
            for model in models
        }
