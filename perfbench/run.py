"""End-to-end benchmark of the fleet simulator and the JPS planner.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload overload_admission --seed 0 --seconds 25 --trace 0

Workloads (the reason for each is recorded in ``BENCHMARK.json``):

* ``overload_admission``, ``served_batching``, ``eft_placement`` time
  whole ``run_system`` calls on fleet configs built from the seed;
* ``plan_zoo`` times ``PlanningEngine.plan`` over the model zoo, cold
  on a fresh engine and then warm over a bandwidth sweep.

With ``--trace 0`` the run is split over fresh processes of about
``CHILD_SECONDS`` each, one after another, each setting up, making one
cold operation and then warm operations until its share of
``--seconds`` is spent; the end-to-end metrics are taken over all of
them. Host times are scaled to a reference host by a speed probe timed
on either side of each operation (see ``worker.Timings``). With
``--trace 1`` one process makes a cold, an untraced and a traced
operation. It reports the per-layer breakdown of the traced
one, its overhead against the untraced one, and a cross-check of the
wrapped cumulative times against cProfile's on a fourth operation.

Outputs are checked on every run: each operation's report must pass
its audit, and every operation of a run must produce the same digest.
For the reference seed the digest must also equal the one stored in
``reference.json``. The last line printed is one JSON object; the exit
code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import LAYERS  # noqa: E402
from worker import PROBE_REFERENCE_S, host_probe  # noqa: E402
from workloads import NAMES  # noqa: E402

#: An untraced run is split into fresh processes of about this many
#: seconds each, and at least ``MIN_CHILDREN`` of them, so that set-up
#: and cold time get several samples per run.
CHILD_SECONDS = 5.0
MIN_CHILDREN = 5
#: Hard limit on one worker process, in seconds.
CHILD_TIMEOUT = 150
#: How far a checked entry point's wrapped cumulative time may stray
#: from cProfile's (see ``LayerTrace.cprofile_rows``).
CPROFILE_TOLERANCE = 0.10

#: Single-threaded numeric libraries, and one hash seed so set-order
#: float sums (GoogLeNet's frontier) cannot move a digest.
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def spawn(job: dict, budget: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    job = {**job, "budget": budget, "probe_s": host_probe()}
    job["spawned"] = time.monotonic()
    env = {**os.environ, **CHILD_ENV}
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(job)],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {CHILD_TIMEOUT} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(children: list[dict]) -> dict[str, float]:
    """The end-to-end metrics of an untraced run, and the sample spread.

    Throughput is the work of one warm operation over the first decile of
    the run's scaled warm times: the probes on either side of an operation
    miss a burst of load that starts or ends inside it, and the fast tail
    is what is left with the fewest such misses. Cold time is the fastest
    scaled cold operation over the run's fresh processes, per unit of its
    work, since the seed sets how much work that is. Scaled set-up time
    and peak memory are medians over the processes.
    """
    warm = [s for child in children for s in child["warm_s"]]
    raw_ms = [ms for child in children for ms in child["raw_ms"]]
    if len(warm) < 2 or any(child["cold_s"] is None for child in children):
        raise BenchError("too few operations completed to report")
    return {
        "throughput_per_s": children[0]["units"]
        / statistics.quantiles(warm, n=10, method="inclusive")[0],
        "cold_ms_per_unit": min(
            child["cold_s"] / child["cold_units"] for child in children
        )
        * 1e3,
        "setup_s": statistics.median(child["setup_s"] for child in children),
        "peak_rss_mb": statistics.median(child["peak_rss_mb"] for child in children),
        "host_factor": statistics.median(
            p for child in children for p in child["probe_s"]
        )
        / PROBE_REFERENCE_S,
        "samples": len(warm),
        "raw_ms_p50": statistics.median(raw_ms),
        "raw_ms_p90": statistics.quantiles(raw_ms, n=10, method="inclusive")[-1],
    }


def per_layer(child: dict) -> dict[str, float]:
    layers = child["layers"]
    counts = child["counts"]
    wall = child["wall_s"]
    out: dict[str, float] = {}
    # self time as a share of the traced wall time: an idle layer reads 0
    # of a measured whole, and the seconds are self_frac * traced_wall_s
    for layer in LAYERS:
        out[f"{layer}.calls"] = layers[layer]["calls"]
        out[f"{layer}.self_frac"] = layers[layer]["self_s"] / wall
    places = layers["placement"]["calls"]
    out["placement.pricings_per_place"] = (
        counts["pricings_in_place"] / places if places else 0.0
    )
    out["cloud.queue_delay_calls"] = counts["queue_delay_calls"]
    out["sim.grants"] = counts["grants"]
    out["engine.cache_hit_rate"] = child["engine"]["cache_hit_rate"]
    out["engine.cache_misses"] = child["engine"]["cache_misses"]
    out.update(child["stats"])
    out["unattributed_s"] = wall - sum(layers[layer]["self_s"] for layer in LAYERS)
    out["traced_wall_s"] = wall
    out["trace.overhead_ratio"] = wall / child["untraced_s"]
    out["trace.cprofile_max_dev"] = max(
        (row["deviation"] for row in child["cprofile"] if row["check"]), default=0.0
    )
    out.update(child["outputs"])
    return out


def print_layer_table(child: dict) -> None:
    wall = child["wall_s"]
    print(f"{'layer':<12}{'calls':>10}{'self_s':>10}{'share':>8}  status")
    for layer in LAYERS:
        row = child["layers"][layer]
        share = row["self_s"] / wall
        print(
            f"{layer:<12}{row['calls']:>10}{row['self_s']:>10.4f}{share:>8.1%}  {row['status']}"
        )
    unattributed = wall - sum(child["layers"][layer]["self_s"] for layer in LAYERS)
    print(f"{'unattributed':<12}{'':>10}{unattributed:>10.4f}{unattributed / wall:>8.1%}")
    print(
        f"traced wall {wall:.4f} s, untraced {child['untraced_s']:.4f} s, "
        f"overhead x{wall / child['untraced_s']:.2f}"
    )
    for spec in child["absent"]:
        print(f"absent entry point: {spec}")
    print("cProfile cross-check: wrapped vs cProfile cumulative s (* = checked)")
    for row in child["cprofile"]:
        print(
            f"  {row['entry']:<45}{row['traced_s']:>9.4f}{row['cprofile_s']:>9.4f}"
            f"{row['deviation']:>8.1%}{' *' if row['check'] else ''}"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    with open(os.path.join(HERE, "reference.json")) as handle:
        reference = json.load(handle)
    expected = (
        reference["digests"].get(args.workload)
        if args.seed == reference["seed"]
        else None
    )
    job = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": bool(args.trace),
        "expected": expected,
    }

    try:
        if args.trace:
            children = [spawn(job, args.seconds)]
            values = per_layer(children[0])
            wanted = contract["per_layer"]
        else:
            children = []
            start = time.monotonic()
            while True:
                left = args.seconds - (time.monotonic() - start)
                if len(children) >= MIN_CHILDREN and left < CHILD_SECONDS / 2:
                    break
                children.append(spawn(job, max(min(CHILD_SECONDS, left), 0.0)))
            values = end_to_end(children)
            wanted = contract["end_to_end"]
    except BenchError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1

    attempted = sum(child["attempted"] for child in children)
    failed = sum(child["failed"] for child in children)
    digests = sorted({d for child in children for d in child["digests"]})
    # one line per distinct problem: every operation of a run shares its input
    problems = list(dict.fromkeys(p for child in children for p in child["problems"]))
    if len(digests) != 1:
        problems.append(f"operations disagree: {len(digests)} distinct digests")
        failed = attempted
    if args.trace:
        problems.extend(
            f"{row['entry']}: traced {row['traced_s']:.4f} s vs cProfile "
            f"{row['cprofile_s']:.4f} s"
            for row in children[0]["cprofile"]
            if row["check"] and row["deviation"] > CPROFILE_TOLERANCE
        )
    correct = failed == 0 and not problems

    print(f"workload {args.workload}  seed {args.seed}  processes {len(children)}")
    print(f"digest {digests[0] if digests else '-'}  "
          + ("reference: " + ("match" if expected in digests else "MISMATCH")
             if expected is not None else "held-out seed: no reference"))
    if not args.trace:
        sample = "plan cell" if args.workload == "plan_zoo" else "run_system call"
        print(
            f"warm operations {values['samples']}; host time per {sample}: "
            f"p50 {values['raw_ms_p50']:.4g} ms, p90 {values['raw_ms_p90']:.4g} ms"
        )
        print(f"host slower than the reference by x{values['host_factor']:.3f} (median)")
        for name, value in children[-1]["outputs"].items():
            print(f"  {name:<28}{value:.6g}  (simulated)")
    else:
        print_layer_table(children[0])
    print(f"op_failed_frac {failed / max(attempted, 1):.6g}  ({failed}/{attempted})")
    for problem in problems:
        print(f"problem: {problem}")
    print("per-layer, traced run:" if args.trace else "end-to-end, host time:")
    metrics = {}
    for spec in wanted:
        name = spec["name"]
        # a per-layer figure the workload has no use for (the simulated
        # outputs of the other kind of workload) reads 0, marked n/a
        value = values[name] if not args.trace else values.get(name, 0.0)
        note = "" if name in values else "  n/a"
        metrics[name] = {"value": value, "unit": spec["unit"]}
        print(f"  {name:<32}{value:.6g} {spec['unit']}{note}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
