"""Planning engine: memoized cost caches behind a single ``plan()``.

The expensive planning intermediates — linearized line tables, the
Pareto frontier cut space, Alg. 3 path plans — are memoized behind
content-addressed keys (network fingerprint, device models, channel
parameters, predictor), with hit/miss statistics and an LRU bound.
See :mod:`repro.engine.engine` for the cache architecture and
``docs/engine.md`` for key/invalidation semantics.
"""

from repro.engine.cache import CacheStats, LRUCache
from repro.engine.engine import PlanningEngine, PricedModel, PricingKernel
from repro.engine.keys import (
    channel_fingerprint,
    device_fingerprint,
    network_fingerprint,
    predictor_fingerprint,
    stable_digest,
)

__all__ = [
    "CacheStats",
    "LRUCache",
    "PlanningEngine",
    "PricedModel",
    "PricingKernel",
    "channel_fingerprint",
    "device_fingerprint",
    "network_fingerprint",
    "predictor_fingerprint",
    "stable_digest",
]
