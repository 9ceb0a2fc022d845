"""Vectorized planning kernel benchmarks → ``BENCH_kernels.json``.

Measures the three fast paths this repo's perf trajectory is pinned to
and writes a machine-readable artifact at the repo root:

* **kernels** — ``johnson_order`` (one stable lexsort) and
  ``flow_shop_completion_times`` (cumsum closed form) against their
  scalar parity oracles at n = 10k jobs, in ns per job;
* **plan_batch** — 64 bandwidth cells planned three ways: the scalar
  reference planner (``repro.faults.oracle.jps_line_scalar`` on the
  engine's warm cost tables), the warm per-call ``plan()`` loop and one
  ``PlanningEngine.plan_batch`` sweep, in cells per second;
* **gateway_dispatch** — served + dropped events per second of wall
  time through the incremental heap-indexed ``Gateway._dispatch``, on a
  one-server ``FleetGateway``;
* **frontier_cuts** — GoogLeNet's cold Pareto frontier cut space built
  by the reference (``prune_dominated`` over every
  ``enumerate_frontier_cuts`` candidate) and by the batch builder
  ``frontier_pareto_cuts``, in ms, with the candidate and survivor
  counts;
* **two_type_split** — the exact split ``split_exact`` on the googlenet
  and vgg16 tables at 5.85 Mbps for n = 8, 100 and 1000: µs per call
  and the rows of the stage matrix it prices per call.

Every section checks parity before timing (kernel inputs are drawn on
a dyadic grid where the closed form is bit-exact); ``frontier_cuts``
records it as ``identical`` (cuts, labels and each mobile set's
iteration order), and ``two_type_split`` as ``identical`` to the
scalar sweep ``split_exact_scalar`` (every field, the makespan by
``float.hex``); ``--check`` requires both. Run as a CLI::

    python benchmarks/bench_kernels.py [--quick] [--check] [--out PATH]

``--quick`` trims repeats and workload sizes for CI smoke (kernel n
stays 10k — the regression gate is defined there); ``--check`` exits
non-zero when a speedup floor is missed — each kernel, both
``plan_batch`` and per-call ``plan()``, and the batch frontier builder
must beat their reference by ``5x`` — when the two frontier cut
lists differ, or when a split differs from the scalar sweep or prices
more than ``MAX_SPLIT_ROWS`` rows (a count, so it holds on any host).

Every gated speedup comes from :func:`interleaved`: the reference and
the fast paths run one after another in each round, and the speedup is
the median over rounds of the ratio within a round. A host that changes
speed between two separately timed loops moves such a ratio far less
than the ratio of two best-of times.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np

from repro.api import as_channel
from repro.core import partition
from repro.core.partition import searchsorted_cut, split_exact
from repro.core.scheduling import (
    flow_shop_completion_arrays,
    flow_shop_completion_times,
    johnson_order,
    johnson_order_indices,
)
from repro.dag.cuts import enumerate_frontier_cuts, frontier_pareto_cuts, prune_dominated
from repro.engine import PlanningEngine
from repro.faults.oracle import (
    flow_shop_completion_times_scalar,
    johnson_order_scalar,
    jps_line_scalar,
    split_exact_scalar,
)
from repro.fleet import FleetGateway, ServerSpec, SystemConfig, WorkloadConfig
from repro.net.bandwidth import TrafficShaper
from repro.net.channel import Channel
from repro.nn.zoo import get_model
from repro.profiling.device import raspberry_pi_4
from repro.profiling.latency import node_mobile_time
from repro.serving.workload import ClientSpec, generate_requests
from repro.utils.units import mbps

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUT = REPO_ROOT / "BENCH_kernels.json"

#: CI regression gate: vectorized kernels must hold this over scalar at n=10k.
MIN_KERNEL_SPEEDUP = 5.0
#: Floor for the batched sweep and for the warm per-call loop, each over
#: the scalar reference planner on the same cells.
MIN_PLAN_BATCH_SPEEDUP = 5.0
#: Floor for the batch frontier builder over the per-candidate reference.
MIN_FRONTIER_SPEEDUP = 5.0

#: Most stage-matrix rows one ``split_exact`` call may price on the
#: ``two_type_split`` tables.
MAX_SPLIT_ROWS = 4

KERNEL_JOBS = 10_000
PLAN_BANDWIDTHS = 64
PLAN_N = 100
SPLIT_MODELS = ("googlenet", "vgg16")
SPLIT_MBPS = 5.85
SPLIT_JOBS = (8, 100, 1000)


def best_of(fn, repeats: int) -> float:
    """Fastest of ``repeats`` timed calls (robust to scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def interleaved(reference, fast: list, rounds: int) -> tuple[float, list[float], list[float]]:
    """Time ``reference`` and each of ``fast`` once per round, rotating
    which runs first; each timed call follows an untimed one of the same
    side, so it does not pay for the caches the other side evicted.

    Returns the reference's fastest call, each fast path's fastest call,
    and each fast path's speedup: the median over rounds of the
    reference's time over the fast path's in the same round.
    """
    sides = [reference, *fast]
    times: list[list[float]] = [[] for _ in sides]
    for round_ in range(rounds):
        for turn in range(len(sides)):
            side = (round_ + turn) % len(sides)
            sides[side]()
            start = time.perf_counter()
            sides[side]()
            times[side].append(time.perf_counter() - start)
    speedups = [statistics.median(r / f for r, f in zip(times[0], t)) for t in times[1:]]
    return min(times[0]), [min(t) for t in times[1:]], speedups


def dyadic_stages(n: int, seed: int = 0) -> tuple[np.ndarray, list[tuple[float, float]]]:
    """(f, g) stage pairs on the 1/1024 grid, as an array and a list.

    Dyadic rationals keep every cumsum exactly representable, so the
    closed-form kernel is bit-identical to the scalar recurrence and
    parity can be asserted with ``==``.
    """
    rng = np.random.default_rng(seed)
    f = rng.integers(0, 4096, size=n) / 1024.0
    g = rng.integers(0, 4096, size=n) / 1024.0
    stages = np.column_stack([f, g])
    return stages, [tuple(pair) for pair in stages.tolist()]


def bench_kernels(rounds: int) -> dict:
    """Array-native kernels against the scalar loops they replaced.

    The timed vector paths are the kernel entry points the hot code
    actually calls (``johnson_order_indices``,
    ``flow_shop_completion_arrays``) — the list-of-tuples compatibility
    wrappers pay an O(n) Python conversion on top, which the parity
    asserts still cover.
    """
    stages, stage_list = dyadic_stages(KERNEL_JOBS)
    f = np.ascontiguousarray(stages[:, 0])
    g = np.ascontiguousarray(stages[:, 1])

    assert johnson_order(stages) == johnson_order_scalar(stage_list)
    assert flow_shop_completion_times(stages) == flow_shop_completion_times_scalar(
        stage_list
    )

    out: dict = {}
    for name, vector, scalar in (
        (
            "johnson_order",
            lambda: johnson_order_indices(f, g),
            lambda: johnson_order_scalar(stage_list),
        ),
        (
            "flow_shop_completion_times",
            lambda: flow_shop_completion_arrays(f, g),
            lambda: flow_shop_completion_times_scalar(stage_list),
        ),
    ):
        scalar_s, (vector_s,), (speedup,) = interleaved(scalar, [vector], rounds)
        out[name] = {
            "n": KERNEL_JOBS,
            "scalar_ns_per_op": scalar_s / KERNEL_JOBS * 1e9,
            "vector_ns_per_op": vector_s / KERNEL_JOBS * 1e9,
            "speedup": speedup,
        }
    return out


def make_channel(uplink_bps: float) -> Channel:
    return Channel(
        shaper=TrafficShaper(uplink_bps=uplink_bps, downlink_bps=2 * uplink_bps)
    )


def bench_plan_batch(rounds: int, model: str = "alexnet") -> dict:
    """The same 64 warm cells through the scalar reference, ``plan()`` and
    ``plan_batch``, after asserting all three return the same schedules."""
    engine = PlanningEngine()
    rates = [mbps(bw) for bw in np.linspace(1.0, 80.0, PLAN_BANDWIDTHS)]
    channels = [make_channel(rate) for rate in rates]

    def reference() -> list:
        return [
            jps_line_scalar(engine.cost_table(model, channel), PLAN_N)
            for channel in channels
        ]

    def per_call() -> list:
        return [engine.plan(model, PLAN_N, channel) for channel in channels]

    def batched() -> list:
        return engine.plan_batch(model, PLAN_N, rates)

    # the first pass also warms every cache layer
    for cell in zip(reference(), per_call(), batched()):
        for schedule in cell[1:]:
            assert schedule.makespan == cell[0].makespan
            assert tuple(schedule.jobs) == tuple(cell[0].jobs)

    reference_s, (per_call_s, batch_s), (per_call_speedup, batch_speedup) = interleaved(
        reference, [per_call, batched], rounds
    )
    return {
        "model": model,
        "n": PLAN_N,
        "bandwidths": PLAN_BANDWIDTHS,
        "reference_cells_per_s": PLAN_BANDWIDTHS / reference_s,
        "per_call_cells_per_s": PLAN_BANDWIDTHS / per_call_s,
        "batch_cells_per_s": PLAN_BANDWIDTHS / batch_s,
        "per_call_speedup": per_call_speedup,
        "batch_speedup": batch_speedup,
    }


def bench_gateway_dispatch(clients: int, horizon: float) -> dict:
    """Events (served + dropped) per second of wall time, one full run.

    Tight deadlines against an overloaded mobile stage make expiry
    bursts routine, exercising exactly the path the incremental head
    index optimizes (expired drops used to rescan every client's head).
    """
    specs = [
        ClientSpec(name=f"c{i}", process="poisson", rate=3.0, deadline=0.4)
        for i in range(clients)
    ]
    requests = generate_requests(specs, horizon=horizon, seed=7)
    config = SystemConfig(
        workload=WorkloadConfig(clients=tuple(specs), horizon=horizon, seed=7),
        servers=(
            ServerSpec(name="gateway", bandwidth_steps=((0.0, 8.0),), max_queue_depth=16),
        ),
        scheme="JPS",
    )
    fleet = FleetGateway(config)
    start = time.perf_counter()
    fleet.run(requests)
    elapsed = time.perf_counter() - start
    records = fleet.servers["gateway"].records
    return {
        "clients": clients,
        "requests": len(requests),
        "events": len(records),
        "events_per_s": len(records) / elapsed,
        "served": sum(1 for r in records if r.outcome == "served"),
        "expired": sum(1 for r in records if r.outcome == "expired"),
    }


def bench_frontier_cuts(rounds: int, model: str = "googlenet") -> dict:
    """The cold Pareto frontier cut space, per candidate and in batch.

    The reference builds and validates a ``Cut`` per candidate and sums
    its compute over the mobile set; the batch builder prices each
    block's candidates as boolean rows and builds ``Cut`` objects only
    for the survivors of a rounding-safe dominance check. Node times are
    the engine's mobile-device times.
    """
    dag = get_model(model).graph
    device = raspberry_pi_4()
    times = {v: node_mobile_time(dag.payload(v), device) for v in dag.node_ids}

    def reference() -> list:
        cuts = enumerate_frontier_cuts(dag)
        compute = {c.mobile: sum(times[v] for v in c.mobile) for c in cuts}
        return prune_dominated(cuts, compute)

    def batched() -> list:
        return frontier_pareto_cuts(dag, times.__getitem__)

    expected, ours = reference(), batched()
    identical = ours == expected and [(c.label, list(c.mobile)) for c in ours] == [
        (c.label, list(c.mobile)) for c in expected
    ]
    reference_s, (batched_s,), (speedup,) = interleaved(reference, [batched], rounds)
    return {
        "model": model,
        "candidates": len(enumerate_frontier_cuts(dag)),
        "survivors": len(expected),
        "identical": identical,
        "reference_ms": reference_s * 1e3,
        "batched_ms": batched_s * 1e3,
        "speedup": speedup,
    }


def _split_fields(split) -> tuple:
    """Every field of a ``TwoTypeSplit``, the makespan as ``float.hex``."""
    return split.position_a, split.position_b, split.n_a, split.n_b, split.makespan.hex()


def bench_two_type_split(repeats: int, calls: int) -> dict:
    """``split_exact`` per call: µs, stage-matrix rows priced, parity.

    The rows are counted by wrapping ``two_type_makespans``, the one
    kernel that prices them; parity is against the scalar sweep over
    every split, ``split_exact_scalar``.
    """
    engine = PlanningEngine()
    channel = as_channel(SPLIT_MBPS)
    cells = []
    for model in SPLIT_MODELS:
        table = engine.cost_table(model, channel)
        l_star = searchsorted_cut(table)
        for n in SPLIT_JOBS:
            with mock.patch.object(
                partition, "two_type_makespans", wraps=partition.two_type_makespans
            ) as kernel:
                split = split_exact(table, l_star, n)
            expected = split_exact_scalar(table, l_star, n)
            seconds = best_of(
                lambda: [split_exact(table, l_star, n) for _ in range(calls)], repeats
            )
            cells.append(
                {
                    "model": model,
                    "n": n,
                    "us_per_call": seconds / calls * 1e6,
                    "rows_per_call": sum(
                        call.args[4] - call.args[3] for call in kernel.call_args_list
                    ),
                    "identical": _split_fields(split) == _split_fields(expected),
                }
            )
    return {"mbps": SPLIT_MBPS, "cells": cells}


def run(quick: bool) -> dict:
    repeats = 3 if quick else 7
    document = {
        "generated_by": "benchmarks/bench_kernels.py",
        "quick": quick,
        "thresholds": {
            "kernel_speedup_min": MIN_KERNEL_SPEEDUP,
            "plan_batch_speedup_min": MIN_PLAN_BATCH_SPEEDUP,
            "frontier_speedup_min": MIN_FRONTIER_SPEEDUP,
            "split_rows_max": MAX_SPLIT_ROWS,
        },
        # kernel rounds are short, so the gate whose ratio varied most gets the most rounds
        "kernels": bench_kernels(15 if quick else 31),
        "plan_batch": bench_plan_batch(1 if quick else 3),
        "gateway_dispatch": bench_gateway_dispatch(
            clients=8 if quick else 32, horizon=20.0 if quick else 60.0
        ),
        "frontier_cuts": bench_frontier_cuts(repeats),
        "two_type_split": bench_two_type_split(repeats, calls=50 if quick else 200),
    }
    return document


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument(
        "--check", action="store_true", help="exit 1 when a speedup floor is missed"
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    document = run(quick=args.quick)
    args.out.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")

    failures = []
    for name, stats in document["kernels"].items():
        line = (
            f"{name:<28s} n={stats['n']}: {stats['vector_ns_per_op']:8.1f} ns/op "
            f"vector vs {stats['scalar_ns_per_op']:8.1f} scalar "
            f"({stats['speedup']:.1f}x)"
        )
        print(line)
        if stats["speedup"] < MIN_KERNEL_SPEEDUP:
            failures.append(f"{name} speedup {stats['speedup']:.2f}x < {MIN_KERNEL_SPEEDUP}x")
    pb = document["plan_batch"]
    print(
        f"{pb['model']} n={pb['n']} x{pb['bandwidths']} bw: "
        f"scalar reference {pb['reference_cells_per_s']:,.0f} cells/s, "
        f"plan() {pb['per_call_cells_per_s']:,.0f} ({pb['per_call_speedup']:.1f}x), "
        f"plan_batch {pb['batch_cells_per_s']:,.0f} ({pb['batch_speedup']:.1f}x)"
    )
    for name in ("per_call", "batch"):
        speedup = pb[f"{name}_speedup"]
        if speedup < MIN_PLAN_BATCH_SPEEDUP:
            failures.append(
                f"{name} plan speedup over the scalar reference "
                f"{speedup:.2f}x < {MIN_PLAN_BATCH_SPEEDUP}x"
            )
    gd = document["gateway_dispatch"]
    print(
        f"gateway dispatch: {gd['events_per_s']:,.0f} events/s "
        f"({gd['served']} served, {gd['expired']} expired of {gd['requests']})"
    )
    fc = document["frontier_cuts"]
    print(
        f"{fc['model']} frontier cuts: {fc['candidates']} candidates, "
        f"{fc['survivors']} survivors; reference {fc['reference_ms']:.1f} ms, "
        f"batch {fc['batched_ms']:.1f} ms ({fc['speedup']:.1f}x), "
        f"identical: {fc['identical']}"
    )
    if not fc["identical"]:
        failures.append("the batch frontier cuts differ from the reference")
    if fc["speedup"] < MIN_FRONTIER_SPEEDUP:
        failures.append(f"frontier cut speedup {fc['speedup']:.2f}x < {MIN_FRONTIER_SPEEDUP}x")
    for cell in document["two_type_split"]["cells"]:
        name = f"{cell['model']} split n={cell['n']}"
        print(
            f"{name}: {cell['us_per_call']:.1f} us/call, "
            f"{cell['rows_per_call']} rows/call, identical: {cell['identical']}"
        )
        if not cell["identical"]:
            failures.append(f"{name} differs from the scalar sweep")
        if cell["rows_per_call"] > MAX_SPLIT_ROWS:
            failures.append(f"{name} prices {cell['rows_per_call']} rows > {MAX_SPLIT_ROWS}")
    print(f"[artifact: {args.out}]")

    if args.check and failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
