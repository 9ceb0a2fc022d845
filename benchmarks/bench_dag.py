"""True-DAG partitioner benchmarks → ``BENCH_dag.json``.

Quantifies the two claims behind ``repro.dag.partition`` on random
dyadic-grid DAGs (the same seed expansion the differential oracle uses)
and writes a machine-readable artifact at the repo root:

* **pricing** — the priced makespan of :func:`partition_dag` against the
  Fig.-9 duplication baseline (:func:`duplication_schedule`), per
  instance and aggregated: the partitioner must never price worse, and
  the mean ratio shows what shared-once pricing buys;
* **scheduling** — wall time of the exact multiset optimum
  (:func:`dag_schedule_from_table`) against the paper's JPS
  (:func:`repro.core.joint.jps_line`) on identical cut tables, plus
  JPS's makespan gap to the optimum.

Run as a CLI::

    python benchmarks/bench_dag.py [--quick] [--check] [--out PATH]

``--quick`` trims the instance count for CI smoke; ``--check`` exits
non-zero when the dominance guarantee breaks (partition pricing worse
than duplication anywhere), no instance shows a strict improvement, or
the optimum prices above JPS anywhere.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

# allow running from a source checkout without installation
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from repro.core.joint import jps_line  # noqa: E402
from repro.dag.partition import (  # noqa: E402
    dag_cut_table,
    dag_schedule_from_table,
    duplication_schedule,
    partition_dag,
)
from repro.dag.topology import PathExplosionError  # noqa: E402
from tests.oracles.harness import dag_instance_from_seed  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUT = REPO_ROOT / "BENCH_dag.json"

#: Bench seeds live in their own range, away from corpus/fuzz/property.
SEED_BASE = 5_000_000

TOLERANCE = 1e-9


def bench_pricing(instances: int) -> dict:
    """partition_dag vs the Fig.-9 duplication baseline."""
    ratios = []
    worse = strict = skipped = 0
    for i in range(instances):
        instance = dag_instance_from_seed(SEED_BASE + i)
        schedule = partition_dag(
            instance.dag, instance.node_cost, instance.upload_time, instance.n
        )
        try:
            baseline = duplication_schedule(
                instance.dag, instance.node_cost, instance.upload_time, instance.n
            )
        except (ValueError, PathExplosionError):
            skipped += 1
            continue
        if schedule.makespan > baseline.makespan + TOLERANCE:
            worse += 1
        if schedule.makespan < baseline.makespan - TOLERANCE:
            strict += 1
        if baseline.makespan > 0:
            ratios.append(schedule.makespan / baseline.makespan)
    return {
        "instances": instances,
        "skipped": skipped,
        "priced_worse": worse,
        "strictly_better": strict,
        "mean_cost_ratio": sum(ratios) / len(ratios) if ratios else 1.0,
        "worst_cost_ratio": max(ratios) if ratios else 1.0,
        "best_cost_ratio": min(ratios) if ratios else 1.0,
    }


def bench_scheduling(instances: int, n: int = 8) -> dict:
    """The exact optimum vs the paper's JPS on identical tables."""
    optimum_s = jps_s = 0.0
    above = 0
    gaps = []
    for i in range(instances):
        instance = dag_instance_from_seed(SEED_BASE + i)
        dct = dag_cut_table(instance.dag, instance.node_cost, instance.upload_time)
        start = time.perf_counter()
        optimum = dag_schedule_from_table(dct.table, dct.cuts, n)
        optimum_s += time.perf_counter() - start
        start = time.perf_counter()
        jps = jps_line(dct.table, n)
        jps_s += time.perf_counter() - start
        if optimum.makespan > jps.makespan + TOLERANCE:
            above += 1
        if optimum.makespan > 0:
            gaps.append(jps.makespan / optimum.makespan - 1.0)
    return {
        "instances": instances,
        "jobs": n,
        "optimum_ms_per_instance": 1e3 * optimum_s / instances,
        "jps_ms_per_instance": 1e3 * jps_s / instances,
        "optimum_above_jps": above,
        "mean_jps_gap": sum(gaps) / len(gaps) if gaps else 0.0,
        "max_jps_gap": max(gaps) if gaps else 0.0,
    }


def run(quick: bool) -> dict:
    instances = 40 if quick else 200
    return {
        "generated_by": "benchmarks/bench_dag.py",
        "quick": quick,
        "pricing": bench_pricing(instances),
        "scheduling": bench_scheduling(max(10, instances // 4)),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument(
        "--check", action="store_true", help="exit 1 when the dominance gate breaks"
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    document = run(quick=args.quick)
    args.out.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")

    pricing = document["pricing"]
    scheduling = document["scheduling"]
    print(
        f"pricing: {pricing['instances']} instances, "
        f"{pricing['strictly_better']} strictly better, "
        f"{pricing['priced_worse']} worse, "
        f"mean ratio {pricing['mean_cost_ratio']:.3f} "
        f"(worst {pricing['worst_cost_ratio']:.3f})"
    )
    print(
        f"scheduling: optimum {scheduling['optimum_ms_per_instance']:.2f} ms vs "
        f"JPS {scheduling['jps_ms_per_instance']:.2f} ms per instance, "
        f"mean JPS gap {100 * scheduling['mean_jps_gap']:.2f}% "
        f"(max {100 * scheduling['max_jps_gap']:.2f}%)"
    )

    failures = []
    if pricing["priced_worse"]:
        failures.append(
            f"{pricing['priced_worse']} instances priced worse than duplication"
        )
    if pricing["strictly_better"] == 0:
        failures.append("no instance showed a strict improvement over duplication")
    if scheduling["optimum_above_jps"]:
        failures.append(
            f"{scheduling['optimum_above_jps']} instances priced the optimum above JPS"
        )
    if args.check and failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
