"""The on-device scheduler of §6.1.

Before partitioning and scheduling, the mobile device must *estimate*
``f`` and ``g``. The paper's deployment does this with a pre-built
lookup table for computation times (local times are stable; the set of
common DNNs is small) and a linear regression ``t = w0 + w1·s/b`` for
communication (bandwidth varies). Both are loaded at scheduler start.

:class:`OnDeviceScheduler` reproduces that pipeline: ``calibrate`` runs
the synthetic profiler to build the estimators; ``plan`` produces a JPS
(or baseline) schedule from *estimated* costs and reports its own
decision latency — the quantity plotted in Fig. 12(d).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.core.plans import Schedule
from repro.engine import PlanningEngine
from repro.engine.keys import identity_token
from repro.net.channel import Channel
from repro.nn.network import Network
from repro.profiling.device import DeviceModel, gtx1080_server
from repro.profiling.lookup import LookupTable, build_lookup_table
from repro.profiling.profiler import measure_communication
from repro.profiling.regression import CommLatencyModel

__all__ = ["PlanResult", "OnDeviceScheduler"]

#: Calibration payload sizes (bytes): spans raw inputs down to logit vectors.
CALIBRATION_SIZES = [4e3, 2e4, 1e5, 3e5, 6e5, 1.2e6]


class _RegressionChannel:
    """Duck-typed Channel whose uplink_time comes from the fitted regression."""

    def __init__(self, model: CommLatencyModel, bandwidth_bps: float):
        self._model = model
        self.uplink_bps = bandwidth_bps

    def uplink_time(self, payload_bytes: float) -> float:
        return self._model.predict(payload_bytes, self.uplink_bps)

    def cache_token(self) -> tuple:
        """Defining values for the planning engine's channel fingerprint.

        Two regression channels with the same fitted coefficients and
        bandwidth price uploads identically, so they may share cached
        cost tables even though the objects differ per ``plan()`` call.
        """
        return ("regression", self._model.w0, self._model.w1, self.uplink_bps)


@dataclass(frozen=True)
class PlanResult:
    """A schedule plus the scheduler's own decision latency."""

    schedule: Schedule
    overhead_s: float


@dataclass
class OnDeviceScheduler:
    """Loads estimators once, then plans with negligible per-call cost.

    Planning goes through a :class:`~repro.engine.PlanningEngine`, so
    repeated ``plan()`` calls for the same (network, bandwidth) reuse
    the memoized cost tables — the structure phase is paid once per
    calibration, matching the paper's "estimators loaded at start"
    deployment story.
    """

    mobile: DeviceModel
    cloud: DeviceModel = field(default_factory=gtx1080_server)
    lookup: LookupTable | None = None
    comm_model: CommLatencyModel | None = None
    engine: PlanningEngine | None = None

    def __post_init__(self) -> None:
        if self.engine is None:
            self.engine = PlanningEngine(mobile=self.mobile, cloud=self.cloud)

    def calibrate(
        self,
        networks: list[Network],
        channel: Channel,
        seed: int | np.random.Generator | None = None,
        noise: float = 0.05,
    ) -> None:
        """Build the lookup table and train the communication regression.

        Mirrors the paper's offline phase: profile each DNN once on the
        mobile device; time a handful of transfers to fit (w0, w1).
        """
        self.lookup = build_lookup_table(networks, self.mobile, seed=seed, noise=noise)
        samples = measure_communication(channel, CALIBRATION_SIZES, seed=seed, noise=noise)
        self.comm_model = CommLatencyModel.fit(samples)

    @property
    def is_calibrated(self) -> bool:
        return self.lookup is not None and self.comm_model is not None

    def plan(
        self,
        network: Network,
        n: int,
        bandwidth_bps: float,
        scheme: str = "JPS",
    ) -> PlanResult:
        """Produce a schedule for ``n`` jobs of ``network`` at the given rate.

        ``scheme``: "JPS", "PO", "LO" or "CO". All schemes run on the
        *estimated* cost table, so comparisons include estimation error
        symmetrically — as they do on the testbed.
        """
        if not self.is_calibrated:
            raise RuntimeError("scheduler is not calibrated; call calibrate() first")
        assert self.lookup is not None and self.comm_model is not None
        if not self.lookup.covers(network):
            raise KeyError(
                f"lookup table has no entries for {network.name!r}; "
                "include it in calibrate()"
            )

        assert self.engine is not None
        started = perf_counter()
        predicted_channel = _RegressionChannel(self.comm_model, bandwidth_bps)
        predictor = self.lookup.predictor_for(network.name)
        # predictor_for returns a fresh closure per call; key the caches by
        # the lookup table's identity instead so recalibration invalidates
        # but repeated plans hit
        predictor_key = ("lookup", identity_token(self.lookup), network.name)
        # the baselines plan on the linearized table even for general DAGs,
        # as the deployed scheduler always has; JPS on the auto table
        schedule = self.engine.plan(
            network, n, predicted_channel,  # type: ignore[arg-type]
            scheme=scheme, structure="auto" if scheme == "JPS" else "line",
            predictor=predictor, predictor_key=predictor_key,
        )
        overhead = perf_counter() - started
        return PlanResult(schedule=schedule, overhead_s=overhead)
