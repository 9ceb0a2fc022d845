"""Content-addressed cache keys for the planning engine.

A memoized intermediate (cost table, frontier structure, Alg. 3 path
plans) is only reusable when *everything* that went into it is
identical: the network's layers and edge volumes, both device models,
the channel parameters, and the predictor used in place of ground
truth. Networks, devices and predictors are reduced to short hex
digests; a real :class:`~repro.net.channel.Channel` is keyed by the
tuple of its five pricing values, as the pricing kernels' framing
already is, since hashing a channel's ``repr`` on every warm plan cost
more than the lookup it keys. The engine keys its caches on tuples of
these, so two networks that merely share a name never alias, and a
re-built but identical network or channel hits.

Fingerprints hash *values*, not object identities, with one deliberate
exception: predictors are opaque callables, so callers that want warm
hits across calls must either pass the same callable object or supply
an explicit ``predictor_key`` describing it (the on-device scheduler
keys its lookup-table predictors by model name + table identity).
Identity is an :func:`identity_token`, never a bare ``id()``: CPython
reuses a freed object's address, and a key built from it would hand
the dead object's cache entries to whatever is allocated there next.
"""

from __future__ import annotations

import hashlib
import itertools
import weakref
from typing import Any, Callable

from repro.net.channel import Channel
from repro.nn.network import Network
from repro.profiling.device import DeviceModel
from repro.profiling.latency import LayerPredictor

__all__ = [
    "identity_token",
    "stable_digest",
    "network_fingerprint",
    "device_fingerprint",
    "channel_fingerprint",
    "predictor_fingerprint",
]


#: id(obj) -> (liveness check, token); a reused address overwrites its entry
_live: dict[int, tuple[Callable[[], Any], int]] = {}
_tokens = itertools.count()


def identity_token(obj: Any) -> int:
    """A number naming ``obj`` for as long as it lives, never reused.

    The entry at ``id(obj)`` is checked against a weak reference, so an
    object allocated at a dead one's address gets a fresh token. Objects
    that cannot be weakly referenced are held, so their address is never
    reused.
    """
    entry = _live.get(id(obj))
    if entry is None or entry[0]() is not obj:
        try:
            alive: Callable[[], Any] = weakref.ref(obj)
        except TypeError:
            alive = lambda: obj  # noqa: E731
        entry = (alive, next(_tokens))
        _live[id(obj)] = entry
    return entry[1]


def stable_digest(*parts: Any) -> str:
    """A short sha256 digest of a canonical textual form of ``parts``."""
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(repr(part).encode())
        hasher.update(b"\x1f")
    return hasher.hexdigest()[:16]


def network_fingerprint(network: Network) -> str:
    """Digest of the network's structure and per-layer cost facts.

    Covers node ids, layer kinds, FLOPs, parameter counts, output bytes
    and shapes, plus every edge with its volume — the complete input of
    the cost-table builders. Insertion order is part of the digest,
    matching the deterministic iteration the planners rely on.
    """
    node_facts = [
        (
            node.name,
            node.kind,
            node.flops,
            node.params,
            node.output_bytes,
            node.input_shapes,
            node.output_shape,
        )
        for node in network.nodes()
    ]
    edge_facts = [(e.tail, e.head, e.volume) for e in network.graph.edges()]
    return stable_digest(network.name, node_facts, edge_facts)


def device_fingerprint(device: DeviceModel) -> str:
    """Digest of every constant of the analytic device model."""
    return stable_digest(
        device.name,
        device.default_throughput,
        sorted(device.kind_throughput.items()),
        device.memory_bandwidth,
        device.layer_overhead,
    )


def channel_fingerprint(channel: Channel | Any) -> str | tuple:
    """Key of the parameters that determine ``uplink_time``.

    Real :class:`~repro.net.channel.Channel` objects are keyed by the
    tuple of their rates and framing constants: values compare exactly,
    so two channels share cached tables only when they price every
    payload alike (``header_bytes=256`` and ``256.0`` do). Duck-typed
    channels (the on-device scheduler's regression-backed channel) may
    expose ``cache_token()`` returning a tuple of defining values;
    anything else is keyed by its :func:`identity_token`, which disables
    cross-object reuse. Both are digests, so no key of theirs equals a
    real channel's.
    """
    token = getattr(channel, "cache_token", None)
    if callable(token):
        return stable_digest("token", token())
    if isinstance(channel, Channel):
        return (
            "channel",
            channel.uplink_bps,
            channel.downlink_bps,
            channel.setup_latency,
            channel.header_bytes,
            channel.protocol_overhead,
        )
    return stable_digest("identity", identity_token(channel))


def predictor_fingerprint(
    predictor: LayerPredictor | None, predictor_key: Any = None
) -> str:
    """Digest of the per-layer time predictor.

    ``None`` (ground-truth device model) is a stable constant. An
    explicit ``predictor_key`` describes a predictor by value; without
    one, distinct callable objects are assumed to predict differently
    and are keyed by their :func:`identity_token`.
    """
    if predictor_key is not None:
        return stable_digest("key", predictor_key)
    if predictor is None:
        return "truth"
    return stable_digest("identity", identity_token(predictor))
