"""Offload gateway: multi-client serving with adaptive re-planning.

The serving layer composes pieces that already existed in isolation —
the memoized :class:`~repro.engine.PlanningEngine`, the Johnson-order
online policy (:mod:`repro.extensions.online`), the discrete-event
pipeline (:mod:`repro.sim`), and time-varying bandwidth traces
(:mod:`repro.net.timeline`) — into a continuously running service:
streams of requests from simulated mobile clients are admitted, planned,
executed on the mobile-CPU/uplink/cloud chain, and measured.

Modules: :mod:`~repro.serving.workload` (clients + arrival processes),
:mod:`~repro.serving.gateway` (admission, dispatch, re-planning),
:mod:`~repro.serving.estimator` (EWMA channel tracking + drift).
Metrics live in :mod:`repro.obs.metrics`; end-to-end runs, from one
gateway to a fleet, go through :func:`repro.fleet.run_system`. See
``docs/serving.md``.
"""

from repro.obs.metrics import Counter, MetricsRegistry, StreamingHistogram
from repro.serving.estimator import AdaptiveChannelEstimator
from repro.serving.gateway import GATEWAY_SCHEMES, Gateway, GatewayResult, ServedRecord
from repro.serving.workload import (
    ClientSpec,
    Request,
    burst_arrivals,
    generate_requests,
    poisson_arrivals,
)

__all__ = [
    "AdaptiveChannelEstimator",
    "GATEWAY_SCHEMES",
    "Gateway",
    "GatewayResult",
    "ServedRecord",
    "Counter",
    "MetricsRegistry",
    "StreamingHistogram",
    "ClientSpec",
    "Request",
    "burst_arrivals",
    "generate_requests",
    "poisson_arrivals",
]
