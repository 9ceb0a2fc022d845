"""Serving workloads: multi-client request streams over the model zoo.

The paper's §3.1 batch (``n`` jobs at time 0) is one degenerate arrival
process. A serving gateway instead sees many clients, each emitting an
open stream — here Poisson (independent frames, mean rate λ) or bursts
(multi-camera trigger groups every ``period`` seconds). Generators are
driven by :func:`repro.utils.rng.make_rng` and per-client spawned
streams, so a scenario is bit-reproducible under its seed and adding a
client never perturbs the others' arrivals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import make_rng, spawn
from repro.utils.validation import require_finite, require_non_negative, require_positive

__all__ = [
    "Request",
    "ClientSpec",
    "poisson_arrivals",
    "burst_arrivals",
    "generate_requests",
]


@dataclass(frozen=True)
class Request:
    """One inference request of one client.

    ``deadline`` is relative to ``arrival``; ``None`` means the client
    waits forever.
    """

    client_id: str
    request_id: int
    model: str
    arrival: float
    deadline: float | None = None

    def __post_init__(self) -> None:
        require_non_negative(self.arrival, "arrival")
        if self.deadline is not None:
            require_positive(self.deadline, "deadline")

    @property
    def expiry(self) -> float:
        """Absolute time after which serving this request is pointless."""
        return float("inf") if self.deadline is None else self.arrival + self.deadline


@dataclass(frozen=True)
class ClientSpec:
    """One simulated mobile client and its arrival process.

    ``process`` is ``"poisson"`` (``rate`` requests/s) or ``"burst"``
    (``burst_size`` back-to-back requests every ``period`` seconds,
    first burst at a uniform random offset within one period).
    """

    name: str
    model: str = "alexnet"
    process: str = "poisson"
    rate: float = 1.0
    burst_size: int = 4
    period: float = 4.0
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.process not in ("poisson", "burst"):
            raise ValueError(f"unknown arrival process {self.process!r}")
        require_positive(self.rate, "rate")
        require_finite(self.rate, "rate")  # an infinite rate never ends the arrivals
        require_positive(self.burst_size, "burst_size")
        require_positive(self.period, "period")
        require_finite(self.period, "period")
        if self.deadline is not None:
            require_positive(self.deadline, "deadline")

    def arrivals(self, horizon: float, rng: np.random.Generator) -> list[float]:
        if self.process == "poisson":
            return poisson_arrivals(self.rate, horizon, rng)
        return burst_arrivals(self.burst_size, self.period, horizon, rng)


def poisson_arrivals(
    rate: float, horizon: float, rng: np.random.Generator | int | None = None
) -> list[float]:
    """Arrival times of a Poisson process of ``rate`` req/s on [0, horizon)."""
    require_positive(rate, "rate")
    require_positive(horizon, "horizon")
    generator = make_rng(rng)
    times: list[float] = []
    t = generator.exponential(1.0 / rate)
    while t < horizon:
        times.append(t)
        t += generator.exponential(1.0 / rate)
    return times


def burst_arrivals(
    burst_size: int,
    period: float,
    horizon: float,
    rng: np.random.Generator | int | None = None,
    spacing: float = 1e-3,
) -> list[float]:
    """Bursts of ``burst_size`` requests ``spacing`` apart every ``period``.

    The first burst starts at a uniform random phase in [0, period) so
    clients sharing a period don't all fire at the same instant.
    """
    require_positive(burst_size, "burst_size")
    require_positive(period, "period")
    require_positive(horizon, "horizon")
    require_non_negative(spacing, "spacing")
    generator = make_rng(rng)
    times: list[float] = []
    start = generator.uniform(0.0, period)
    while start < horizon:
        times.extend(
            start + i * spacing
            for i in range(burst_size)
            if start + i * spacing < horizon
        )
        start += period
    return times


def generate_requests(
    clients: list[ClientSpec],
    horizon: float,
    seed: int | np.random.Generator | None = None,
) -> list[Request]:
    """All clients' requests merged in arrival order, ids globally unique.

    Ties (identical arrival instants) break by client order so the
    merged stream — and everything downstream of it — is deterministic.
    """
    if not clients:
        raise ValueError("need at least one client")
    names = [c.name for c in clients]
    if len(set(names)) != len(names):
        raise ValueError(f"client names must be unique, got {names}")
    streams = spawn(make_rng(seed), len(clients))
    tagged: list[tuple[float, int, ClientSpec]] = []
    for order, (client, rng) in enumerate(zip(clients, streams)):
        tagged.extend((t, order, client) for t in client.arrivals(horizon, rng))
    tagged.sort(key=lambda item: (item[0], item[1]))
    return [
        Request(
            client_id=client.name,
            request_id=index,
            model=client.model,
            arrival=arrival,
            deadline=client.deadline,
        )
        for index, (arrival, _, client) in enumerate(tagged)
    ]
