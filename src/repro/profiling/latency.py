"""Cost tables: the (f, g) functions the paper's algorithms consume.

For a line-structure DNN with cut positions ``0..k-1`` ("cut after
layer i"), the table stores

* ``f[i]`` — cumulative mobile computation time through layer ``i``
  (monotonically non-decreasing; roughly linear on real DNNs, §3.2),
* ``g[i]`` — upload time of layer ``i``'s output tensor (non-increasing
  after virtual-block clustering; roughly convex decreasing),
* ``cloud[i]`` — cloud time of the *remaining* layers (negligible next
  to f and g; kept for the 3-stage flow-shop extension).

Position ``0`` is the Input pseudo-layer: ``f[0] = 0`` and ``g[0]`` is
the raw-input upload — the cloud-only scheme. The final position has
``g[k-1] = 0``: a fully-local job never touches the network (results
are consumed on the device that produced them).

Tables are built from a :class:`~repro.profiling.device.DeviceModel`
pair and a :class:`~repro.net.Channel`, optionally through a fitted
predictor (lookup table / regression) instead of ground truth — that is
how estimation error enters the planning path while the simulator
executes the truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from repro.dag.graph import Dag
from repro.dag.transform import VirtualBlock, linearize
from repro.net.channel import Channel
from repro.nn.network import LayerNode, Network
from repro.profiling.device import DeviceModel

__all__ = [
    "CostTable",
    "node_mobile_time",
    "line_cost_table",
    "path_cost_table",
    "smooth_cost_table",
]

#: Optional override for per-layer time prediction (lookup table, regression).
LayerPredictor = Callable[[LayerNode], float]


def _payload_layers(payload: object) -> list[LayerNode]:
    """Flatten a node payload (LayerNode or VirtualBlock) to LayerNodes."""
    if isinstance(payload, LayerNode):
        return [payload]
    if isinstance(payload, VirtualBlock):
        out: list[LayerNode] = []
        for inner in payload.payloads:
            out.extend(_payload_layers(inner))
        return out
    raise TypeError(f"unsupported payload type {type(payload).__name__}")


def node_mobile_time(
    payload: object, device: DeviceModel, predictor: LayerPredictor | None = None
) -> float:
    """Execution time of a node (recursing through virtual blocks)."""
    predict = predictor or device.layer_time
    return sum(predict(layer) for layer in _payload_layers(payload))


@dataclass(frozen=True, eq=False)
class CostTable:
    """Per-cut-position costs of one line-structure (or linearized) DNN."""

    model_name: str
    positions: tuple[str, ...]
    f: np.ndarray
    g: np.ndarray
    cloud: np.ndarray
    graph: Dag | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        # the column checks as a few fused array tests; the per-column
        # scan only words a failure, the first in the order it checks
        k = len(self.positions)
        f, g, cloud = self.f, self.g, self.cloud
        if k == 0 or f.shape != (k,) or g.shape != (k,) or cloud.shape != (k,):
            self._check_columns()
        values = np.concatenate((f, g, cloud))
        if not ((values >= 0) & (values < np.inf)).all():  # NaN fails both
            self._check_columns()
        if (f[1:] < f[:-1]).any():
            raise ValueError("f must be non-decreasing")
        if (cloud[1:] < cloud[:-1]).any():
            raise ValueError("cloud must be non-decreasing")

    def _check_columns(self) -> None:
        """Each column's shape, then its values: finite and non-negative."""
        k = len(self.positions)
        if k == 0:
            raise ValueError("cost table must have at least one position")
        for name, arr in (("f", self.f), ("g", self.g), ("cloud", self.cloud)):
            if arr.shape != (k,):
                raise ValueError(f"{name} must have shape ({k},), got {arr.shape}")
            if not (arr.min() >= 0 and arr.max() < np.inf):  # NaN fails both
                at = int(np.argmin((arr >= 0) & (arr < np.inf)))
                raise ValueError(
                    f"{name} must be finite and non-negative, got {name}[{at}] = {arr[at]}"
                )

    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        """Number of cut positions."""
        return len(self.positions)

    @property
    def local_only_time(self) -> float:
        """f at the last position: run everything on the mobile device."""
        return float(self.f[-1])

    @property
    def cloud_only_upload(self) -> float:
        """g at position 0: upload the raw input."""
        return float(self.g[0])

    def cloud_rest(self, position: int) -> float:
        """Cloud time of the part *after* ``position``."""
        return float(self.cloud[-1] - self.cloud[position])

    def is_g_non_increasing(self, tolerance: float = 1e-12) -> bool:
        """True when clustering achieved the §3.2 monotonicity of g."""
        g = self.g
        return bool((g[1:] - g[:-1] <= tolerance).all())

    def stage_lengths(self, position: int) -> tuple[float, float]:
        """(computation stage, communication stage) of a job cut at ``position``."""
        if not 0 <= position < self.k:
            raise IndexError(f"position must be in [0, {self.k}), got {position}")
        return float(self.f[position]), float(self.g[position])

    def position_of(self, node_id: str) -> int:
        """Index of a cut position by node id."""
        try:
            return self.positions.index(node_id)
        except ValueError:
            raise KeyError(f"{node_id!r} is not a cut position of {self.model_name}") from None

    def transfer_bytes_at(self, position: int) -> float:
        """Payload bytes uploaded when cutting at ``position``.

        Requires a graph-backed table: reads the edge volume between the
        position and its successor; the final position uploads nothing.
        Used by the time-varying-bandwidth simulator, which needs bytes
        rather than a pre-priced duration.
        """
        if self.graph is None:
            raise ValueError(
                f"{self.model_name}: transfer bytes need a graph-backed table"
            )
        if not 0 <= position < self.k:
            raise IndexError(f"position must be in [0, {self.k}), got {position}")
        if position == self.k - 1:
            return 0.0
        return self.graph.volume(self.positions[position], self.positions[position + 1])

    def mobile_nodes_at(self, position: int) -> frozenset[str]:
        """Original-graph node ids on the mobile side of cut ``position``.

        Requires the table to have been built from a graph (``graph`` is
        not None); virtual blocks are expanded to their members so the
        result addresses the *original* network's layers — what the
        runtime prototype executes.
        """
        if self.graph is None:
            raise ValueError(
                f"{self.model_name}: table has no backing graph; "
                "mobile sets are only available for graph-built tables"
            )
        if not 0 <= position < self.k:
            raise IndexError(f"position must be in [0, {self.k}), got {position}")
        return self.graph.prefix_members(self.positions, position)

    def with_channel_scaled(self, factor: float) -> "CostTable":
        """A table with all communication times scaled by ``factor``.

        Convenience for bandwidth sweeps when rebuilding from the graph
        is unnecessary (time scales as 1/bandwidth up to setup latency).
        """
        if factor <= 0:
            raise ValueError(f"factor must be > 0, got {factor}")
        return replace(self, g=self.g * factor)


def line_cost_table(
    source: Network | Dag,
    mobile: DeviceModel,
    cloud: DeviceModel,
    channel: Channel,
    predictor: LayerPredictor | None = None,
    cluster: bool = True,
) -> CostTable:
    """Build the (f, g, cloud) table of a line-structure DNN.

    ``source`` may be a :class:`Network` (general graphs are linearized
    via virtual-block clustering when ``cluster=True``) or an existing
    line :class:`Dag` whose payloads are LayerNodes / VirtualBlocks.
    """
    if isinstance(source, Network):
        name = source.name
        graph = source.graph
    else:
        name = source.name
        graph = source
    if cluster:
        # linearize also applies virtual-block clustering to graphs that are
        # already lines, which is what restores the §3.2 monotonicity of g
        # (e.g. AlexNet's conv1 output is larger than its input).
        graph = linearize(graph)
    order = graph.line_order()

    f_steps = [node_mobile_time(graph.payload(v), mobile, predictor) for v in order]
    cloud_steps = [node_mobile_time(graph.payload(v), cloud) for v in order]
    volumes = [graph.volume(a, b) for a, b in zip(order, order[1:])] + [0.0]
    g = [channel.uplink_time(v) for v in volumes]

    return CostTable(
        model_name=name,
        positions=tuple(order),
        f=np.cumsum(f_steps),
        g=np.asarray(g),
        cloud=np.cumsum(cloud_steps),
        graph=graph,
    )


def path_cost_table(
    network: Network,
    path: tuple[str, ...],
    mobile: DeviceModel,
    cloud: DeviceModel,
    channel: Channel,
    predictor: LayerPredictor | None = None,
) -> CostTable:
    """Cost table of one independent path of a converted general DAG.

    Used by Alg. 3: each path is treated as a line-structure DNN whose
    per-layer costs come from the *original* nodes, so a layer shared by
    several paths contributes its full time to each path's table (the
    dedup happens later, at scheduling/execution time).
    """
    graph = network.graph
    f_steps = [node_mobile_time(graph.payload(v), mobile, predictor) for v in path]
    cloud_steps = [node_mobile_time(graph.payload(v), cloud) for v in path]
    volumes = [graph.volume(a, b) for a, b in zip(path, path[1:])] + [0.0]
    g = [channel.uplink_time(v) for v in volumes]
    return CostTable(
        model_name=f"{network.name}/path:{path[0]}..{path[-1]}",
        positions=tuple(path),
        f=np.cumsum(f_steps),
        g=np.asarray(g),
        cloud=np.cumsum(cloud_steps),
        graph=None,
    )


def smooth_cost_table(table: CostTable, keep_endpoints: bool = True) -> CostTable:
    """The paper's AlexNet′ construction (Fig. 11).

    Replaces ``f`` with its least-squares linear fit and ``g`` with a
    fitted decreasing convex exponential ``a * exp(-b*i) + c``, sampled
    at the original positions. On the smoothed table the continuous
    theory's assumptions hold essentially exactly, so JPS should match
    brute force at every job count.

    ``keep_endpoints`` preserves ``f[0] = 0`` and ``g[-1] = 0`` so the
    cloud-only / local-only semantics of the boundary cuts survive.
    """
    k = table.k
    idx = np.arange(k, dtype=float)

    # linear fit of f through the origin offset
    coeffs = np.polyfit(idx, table.f, deg=1)
    f_fit = np.polyval(coeffs, idx)
    f_fit = np.maximum.accumulate(np.maximum(f_fit, 0.0))  # keep monotone, >= 0

    # exponential fit of g on the interior positions (g[-1]=0 breaks the log)
    interior = table.g[:-1] if keep_endpoints and table.g[-1] == 0 else table.g
    floor = max(float(interior.min()) * 0.5, 1e-9)
    log_g = np.log(np.maximum(interior, floor))
    slope, intercept = np.polyfit(idx[: len(interior)], log_g, deg=1)
    g_fit = np.exp(intercept + slope * idx)
    g_fit = np.minimum.accumulate(g_fit)  # enforce non-increasing

    if keep_endpoints:
        f_fit[0] = 0.0
        g_fit[-1] = 0.0

    return CostTable(
        model_name=f"{table.model_name}-prime",
        positions=table.positions,
        f=f_fit,
        g=g_fit,
        cloud=table.cloud.copy(),
        graph=table.graph,
    )
