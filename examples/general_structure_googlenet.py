#!/usr/bin/env python
"""General-structure partitioning on GoogLeNet (paper §5.3 / Alg. 3).

GoogLeNet's Inception modules must not be collapsed into virtual blocks
— their 1x1 reduction convs shrink branch tensors below the module's
input, so the best cut can thread *through* a module with a different
depth per branch. This example contrasts three treatments:

* linearized      — force a line structure (what the paper does for
                    MobileNet/ResNet; lossy here),
* Alg. 3 (paths)  — the paper's heuristic: independent paths, one cut
                    per path, duplicate-aware Johnson scheduling,
* frontier (ours) — exact enumeration of the series-parallel cut space,
                    Pareto-pruned, then the usual two-type JPS.

Run:  python examples/general_structure_googlenet.py
"""

from repro.core import alg3_schedule, jps_line
from repro.dag import count_paths, enumerate_frontier_cuts, separators
from repro.engine import PlanningEngine
from repro.net import FOUR_G, Channel
from repro.nn import zoo
from repro.profiling import gtx1080_server, line_cost_table, raspberry_pi_4

N_JOBS = 50


def main() -> None:
    network = zoo.googlenet()
    mobile, cloud = raspberry_pi_4(), gtx1080_server()
    channel = Channel.from_preset(FOUR_G)
    graph = network.graph

    print(f"{network.name}: {len(graph)} layers, "
          f"{count_paths(graph)} source-to-sink paths, "
          f"{len(separators(graph))} separators")
    cuts = enumerate_frontier_cuts(graph)
    print(f"exact cut space: {len(cuts)} downward-closed cuts "
          f"(vs 4^9 = {4**9} naive path combinations)\n")

    linearized = jps_line(line_cost_table(network, mobile, cloud, channel), N_JOBS)
    engine = PlanningEngine(mobile=mobile, cloud=cloud)
    frontier = engine.plan(network, N_JOBS, channel, structure="frontier")
    paths = alg3_schedule(network, mobile, cloud, channel, N_JOBS)

    print(f"{'treatment':<22s} {'makespan (s)':>12s} {'avg/job (ms)':>13s}")
    rows = [
        ("linearized (lossy)", linearized),
        ("frontier JPS (exact)", frontier),
        ("Alg. 3 paths*", paths),
    ]
    for label, schedule in rows:
        # Alg. 3 schedules hold n x paths units, so divide by the job count
        # rather than using Schedule.average_completion
        print(f"{label:<22s} {schedule.makespan:12.2f} "
              f"{schedule.makespan / N_JOBS * 1e3:13.1f}")
    print("\n* Alg. 3 uses the paper's per-path accounting: duplicated layers are")
    print("  charged once per job, but the per-path cuts need not assemble into a")
    print("  single consistent frontier — treat its makespan as the paper's")
    print("  optimistic model, not an executable plan (see DESIGN.md).")

    chosen = {job.cut_label for job in frontier.jobs}
    print("\nfrontier JPS cut(s) chosen:")
    for label in sorted(chosen):
        print(f"  {label}")
    inside = [c for c in chosen if c.startswith("inside:")]
    if inside:
        print("  -> the optimal cut threads through an Inception module, which no")
        print("     line-structure treatment can express.")


if __name__ == "__main__":
    main()
