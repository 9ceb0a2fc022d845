#!/usr/bin/env python
"""Quickstart: partition and schedule 100 AlexNet inference jobs.

Walks the whole public API in one file:

1. build a DNN from the model zoo,
2. derive its cost table for a mobile device + cloud server + 4G uplink,
3. run the paper's four schemes (LO, CO, PO, JPS),
4. execute the JPS schedule on the discrete-event pipeline and draw the
   timeline.

Run:  python examples/quickstart.py
"""

from repro.core import cloud_only, jps_line, local_only, partition_only
from repro.engine import PlanningEngine
from repro.net import FOUR_G, Channel
from repro.nn import zoo
from repro.profiling import gtx1080_server, line_cost_table, raspberry_pi_4
from repro.sim import render_gantt, simulate_schedule


def main() -> None:
    n_jobs = 100
    network = zoo.alexnet()
    mobile = raspberry_pi_4()
    cloud = gtx1080_server()
    channel = Channel.from_preset(FOUR_G)

    print(f"model: {network.name} — {network.num_layers} layers, "
          f"{network.total_flops / 1e9:.2f} GFLOPs")
    print(f"uplink: {FOUR_G.name} ({channel.uplink_bps / 1e6:.2f} Mbps)\n")

    # the (f, g) cost table after virtual-block clustering (§3.2)
    table = line_cost_table(network, mobile, cloud, channel)
    print(f"{'cut position':<32s} {'f (ms)':>8s} {'g (ms)':>8s}")
    for i, position in enumerate(table.positions):
        print(f"{position:<32s} {table.f[i] * 1e3:8.1f} {table.g[i] * 1e3:8.1f}")
    print()

    # the paper's comparison (§6.2)
    schedules = {
        "LO ": local_only(table, n_jobs),
        "CO ": cloud_only(table, n_jobs),
        "PO ": partition_only(table, n_jobs),
        "JPS": PlanningEngine(mobile=mobile, cloud=cloud).plan(network, n_jobs, channel),
    }
    print(f"{'scheme':<6s} {'makespan (s)':>12s} {'avg/job (ms)':>13s}")
    for name, schedule in schedules.items():
        print(f"{name:<6s} {schedule.makespan:12.2f} "
              f"{schedule.average_completion * 1e3:13.1f}")
    jps_schedule = schedules["JPS"]
    print(f"\nJPS cut split: {jps_schedule.cut_histogram()} "
          f"(l* = {jps_schedule.metadata['l_star']})\n")

    # execute a small slice on the discrete-event pipeline
    small = jps_line(table, 8)
    result = simulate_schedule(small)
    print("pipeline timeline for 8 JPS jobs "
          "(computation and upload overlap across jobs):")
    print(render_gantt(result))


if __name__ == "__main__":
    main()
