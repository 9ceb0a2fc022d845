#!/usr/bin/env python
"""Self-driving-car scenario (paper §1): multiple cameras, one DNN.

A vehicle captures a burst of frames from six cameras every perception
cycle and runs the *same* ResNet-18 on each — exactly the homogeneous
multi-job workload the paper optimizes. This example plans the burst at
several uplink conditions, then adds a heterogeneous twist (a Tiny-YOLO
detector alongside the classifier) using the heterogeneous-jobs
extension, which schedules the mixed burst at its exact joint optimum.

Run:  python examples/self_driving_multicamera.py
"""

from repro.core import jps_line, local_only, partition_only
from repro.experiments.runner import ExperimentEnv
from repro.extensions import ModelJobs, jps_heterogeneous
from repro.sim import simulate_schedule, validate_against_recurrence

CAMERAS = 6
BURSTS_PER_SECOND = 5  # how many perception cycles must fit in a second


def deadline_report(label: str, makespan: float) -> str:
    budget = 1.0 / BURSTS_PER_SECOND
    verdict = "MEETS" if makespan <= budget else "MISSES"
    return f"  {label:<28s} burst makespan {makespan * 1e3:7.1f} ms — {verdict} the {budget * 1e3:.0f} ms budget"


def main() -> None:
    env = ExperimentEnv()
    print(f"{CAMERAS} cameras x ResNet-18 per perception cycle, "
          f"{BURSTS_PER_SECOND} cycles/s\n")

    for bandwidth in (1.1, 5.85, 18.88, 40.0):
        table = env.cost_table("resnet18", bandwidth)
        lo = local_only(table, CAMERAS)
        po = partition_only(table, CAMERAS)
        j = jps_line(table, CAMERAS)
        print(f"uplink {bandwidth:5.2f} Mbps:")
        print(deadline_report("local-only", lo.makespan))
        print(deadline_report("partition-only (Neurosurgeon)", po.makespan))
        print(deadline_report("JPS (joint)", j.makespan))

        # sanity: the planned makespan is what the pipeline actually yields
        result = simulate_schedule(j)
        validate_against_recurrence(result, j)
        print()

    print("heterogeneous burst: 6 classifier frames + 2 detector frames at 18.88 Mbps")
    classifier = ModelJobs(table=env.cost_table("resnet18", 18.88), count=CAMERAS)
    detector = ModelJobs(table=env.cost_table("tiny-yolov2", 18.88), count=2)
    mixed = jps_heterogeneous([classifier, detector])
    solo = (jps_line(classifier.table, classifier.count).makespan
            + jps_line(detector.table, detector.count).makespan)
    print(f"  pooled optimum (JPS-hetero): {mixed.makespan * 1e3:7.1f} ms")
    print(f"  back-to-back JPS per model : {solo * 1e3:7.1f} ms")
    print(f"  interleaving saves         : {(solo - mixed.makespan) * 1e3:7.1f} ms "
          f"({(1 - mixed.makespan / solo) * 100:.1f}%)")


if __name__ == "__main__":
    main()
