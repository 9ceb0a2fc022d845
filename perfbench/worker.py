"""One benchmark process: set up one workload, time it, print one JSON line.

``run.py`` starts a fresh process per measurement so that cold really
is cold (no warm ``PlanningEngine``, no imported zoo state) and so that
set-up time and peak memory belong to this workload alone. The single
argument is a JSON job: ``workload``, ``seed``, ``spawned`` (the parent's
``time.monotonic()`` just before starting this process), ``probe_s``
(the parent's ``host_probe()`` just before that), ``budget`` seconds,
``trace`` and ``expected`` (the reference digest, or null).
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self, expected: str | None) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: set[str] = set()

    def record(self, ops: int, digest: str | None, problems: list[str]) -> None:
        """Count ``ops`` operations whose joint output has ``digest``."""
        self.attempted += ops
        if digest is not None:
            self.digests.add(digest)
            if self.expected is not None and digest != self.expected:
                problems = problems + [f"digest {digest[:16]} != reference"]
        if digest is None or problems:
            self.failed += ops
            self.problems.extend(problems)

    def passed(self, ops: int) -> None:
        """Count ``ops`` operations that ran and are not digested."""
        self.attempted += ops

    def crashed(self, ops: int, error: Exception) -> None:
        self.record(ops, None, [f"{type(error).__name__}: {error}"])

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems[:20],
            "digests": sorted(self.digests),
        }


# ----------------------------------------------------------------------
# timed runs
# ----------------------------------------------------------------------
#: Host speed is read from this fixed pure-Python loop, timed next to
#: every measured operation. Its integers are not tracked by the garbage
#: collector, so it never pays for the workload's heap.
PROBE_LOOPS = 60_000
PROBE_REPEATS = 3
#: The probe's time on a quiet 2-vCPU x86-64 host: scaled times are
#: seconds of that host.
PROBE_REFERENCE_S = 0.008


def host_probe() -> float:
    """The fastest of ``PROBE_REPEATS`` runs of the probe loop, in seconds."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        counts: dict[int, int] = {}
        for i in range(PROBE_LOOPS):
            counts[i % 1000] = counts.get(i % 1000, 0) + i
        best = min(best, time.perf_counter() - start)
    return best


class Timings:
    """Set-up, cold and warm times of one process.

    Other tenants of a shared host slow every operation in a burst by
    about the same factor, for seconds at a time. So every operation
    runs between two host probes, and its time is scaled by
    ``PROBE_REFERENCE_S`` over their mean: the scaled time is what the
    operation would take on the reference host.
    """

    def __init__(self, job: dict) -> None:
        setup_s = time.monotonic() - job["spawned"]
        self.probe_s = [host_probe()]
        # set-up is scaled by the probes on either side of it: the
        # parent's just before it started this process, and the first here
        factor = (job["probe_s"] + self.probe_s[0]) / 2 / PROBE_REFERENCE_S
        self.setup_s = setup_s / factor
        self.cold_s: float | None = None
        self.warm_s: list[float] = []
        self.raw_ms: list[float] = []

    def measure(self, operation):
        """Time ``operation()``, which returns ``(host seconds, result)``.

        A full collection first, untimed, so that every operation starts
        from the same collector state and pays for the same collections.
        """
        gc.collect()
        elapsed, result = operation()
        self.probe_s.append(host_probe())
        factor = (self.probe_s[-2] + self.probe_s[-1]) / 2 / PROBE_REFERENCE_S
        if self.cold_s is None:
            self.cold_s = elapsed / factor
        else:
            self.warm_s.append(elapsed / factor)
        return elapsed, result

    def as_dict(self) -> dict:
        return {
            "setup_s": self.setup_s,
            "cold_s": self.cold_s,
            "warm_s": self.warm_s,
            "raw_ms": self.raw_ms,
            "probe_s": self.probe_s,
        }


def measure_fleet(job: dict, tally: Tally) -> dict:
    """One cold ``run_system`` call, then warm ones until the budget is spent."""
    import workloads

    work = workloads.FleetWorkload(job["workload"], job["seed"])
    timings = Timings(job)
    deadline = job["spawned"] + job["budget"]
    outputs = {}
    while True:
        try:
            elapsed, report = timings.measure(work.run)
        except Exception as error:  # one failed operation ends the run
            tally.crashed(1, error)
            break
        if timings.warm_s:
            timings.raw_ms.append(elapsed * 1e3)
        tally.record(1, *work.check(report))
        outputs = work.outputs(report)
        if timings.warm_s and time.monotonic() + elapsed > deadline:
            break
    units = {"units": work.arrivals, "cold_units": work.arrivals}
    return {**timings.as_dict(), **units, "outputs": outputs}


def measure_zoo(job: dict, tally: Tally) -> dict:
    """The cold pass, then whole warm sweeps until the budget is spent.

    A warm operation is one sweep: every model's JPS and LO plans at
    every bandwidth of one draw. The digest covers the cold pass and
    sweep 0.
    """
    import workloads

    work = workloads.ZooWorkload(job["seed"])
    timings = Timings(job)
    deadline = job["spawned"] + job["budget"]
    plans = 2 * len(work.models) * len(work.sweep0)
    outputs = {}
    bandwidths = work.sweep0

    def sweep():
        start = time.perf_counter()
        timed = list(work.cells(bandwidths))
        return time.perf_counter() - start, timed

    try:
        _, cold = timings.measure(work.cold)
        while True:
            elapsed, timed = timings.measure(sweep)
            timings.raw_ms.extend(cell_s * 1e3 for cell_s, _ in timed)
            if bandwidths is work.sweep0:
                cells = [cell for _, cell in timed]
                tally.record(len(cold) + plans, *work.check(cold, cells))
                outputs = work.outputs(cells)
            else:
                tally.passed(plans)
            if time.monotonic() + elapsed > deadline:
                break
            bandwidths = work.bandwidths()
    except Exception as error:  # one failed sweep ends the run
        tally.crashed(plans, error)
    units = {"units": plans, "cold_units": len(work.models)}
    return {**timings.as_dict(), **units, "outputs": outputs}


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
def _fleet_pass(work):
    """One operation as the traced run times it, and its check."""

    def run():
        _, report = work.run()
        report.as_dict()  # the report layer's part of producing the output
        return report

    return run, work.check


def _zoo_pass(work):
    def run():
        work.fresh_engine()
        _, cold = work.cold()
        return cold, [cell for _, cell in work.cells(work.sweep0)]

    return run, lambda output: work.check(*output)


def _fleet_stats(trace, report) -> dict:
    """Simulated per-layer figures of one traced fleet run."""
    counters: dict[str, int] = {}
    for block in report.servers.values():
        for key, value in block["report"]["counters"].items():
            counters[key] = counters.get(key, 0) + value
    stats = {
        "gateway.admitted": counters.get("admitted", 0),
        "gateway.dropped_deadline": counters.get("dropped_deadline", 0),
        "gateway.dropped_queue_full": counters.get("dropped_queue_full", 0),
    }
    merged = None
    for gateway in trace.gateways.values():
        histogram = gateway.metrics.histogram("queue_wait")
        if merged is None:
            merged = type(histogram)(histogram.relative_accuracy)
        merged.merge(histogram)
    stats["gateway.queue_wait_sim_p50_s"] = (
        merged.quantile(0.5) if merged is not None and merged.count else 0.0
    )
    gpus = report.fleet.get("cloud", {}).get("servers", [])
    batches = sum(gpu["batches"] for gpu in gpus)
    stats["cloud.batches"] = batches
    stats["cloud.mean_batch"] = (
        sum(gpu["batched_requests"] for gpu in gpus) / batches if batches else 0.0
    )
    stats["cloud.gpu_busy_frac"] = (
        sum(gpu["busy_time"] for gpu in gpus) / (len(gpus) * report.makespan)
        if gpus and report.makespan > 0
        else 0.0
    )
    return stats


def traced(job: dict, tally: Tally) -> dict:
    import cProfile

    import layers
    import workloads

    fleet = job["workload"] != "plan_zoo"
    if fleet:
        work = workloads.FleetWorkload(job["workload"], job["seed"])
        run, check = _fleet_pass(work)
    else:
        work = workloads.ZooWorkload(job["seed"])
        run, check = _zoo_pass(work)
    # operations per pass: one run_system call, or every plan call
    ops = 1 if fleet else len(work.models) * (1 + 2 * len(work.sweep0))

    def attempt(observe=None):
        """Time one pass; ``observe`` reads the trace before the check runs."""
        start = time.perf_counter()
        output = run()
        elapsed = time.perf_counter() - start
        observed = observe(elapsed, output) if observe is not None else None
        tally.record(ops, *check(output))
        return elapsed, observed

    def breakdown(wall_s, output):
        hits = misses = 0
        for engine in trace.engines.values():
            totals = engine.stats_snapshot()["totals"]
            hits += totals["hits"]
            misses += totals["misses"]
        return {
            "wall_s": wall_s,
            "absent": trace.absent,
            "layers": {
                layer: {
                    "calls": trace.calls[layer],
                    "self_s": trace.self_s[layer],
                    "status": trace.layer_status(layer),
                }
                for layer in layers.LAYERS
            },
            "counts": dict(trace.counts),
            "engine": {
                "cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
                "cache_misses": misses,
            },
            "stats": _fleet_stats(trace, output) if fleet else {},
            "outputs": work.outputs(output if fleet else output[1]),
        }

    def cross_check(elapsed, _output):
        profiler.disable()
        return trace.cprofile_rows(profiler, elapsed)

    attempt()                           # cold: module state warms up
    untraced_s, _ = attempt()           # the reference for overhead
    with open(os.path.join(HERE, "contract.json")) as handle:
        trace = layers.LayerTrace(json.load(handle))
    trace.install()
    _, result = attempt(breakdown)
    result["untraced_s"] = untraced_s

    # the cross-check: one more traced pass, under cProfile as well
    trace.reset()
    profiler = cProfile.Profile(builtins=False)
    profiler.enable()
    _, result["cprofile"] = attempt(cross_check)
    return result


def main() -> int:
    job = json.loads(sys.argv[1])
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import repro

    if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"repro imported from {repro.__file__}, not this checkout", file=sys.stderr)
        return 2
    tally = Tally(job["expected"])
    if job["trace"]:
        result = traced(job, tally)
    elif job["workload"] == "plan_zoo":
        result = measure_zoo(job, tally)
    else:
        result = measure_fleet(job, tally)
    result.update(tally.as_dict())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
