"""Command-line interface: ``python -m repro <command>``.

Commands
--------
models                         list the zoo with FLOP/param/structure info
summary MODEL                  per-layer table of one model
table MODEL [--mbps X]         the (f, g, cloud) cost table
plan MODEL [-n N] [--mbps X] [--scheme S] [--structure T] [--split M]
     [--json] [--gantt]       plan a job set and report the schedule
compare MODEL [-n N] [--mbps X] [--json]
                               all four schemes side by side + LP lower bound
serve [--clients N] [--rate R] [--horizon T] [--model M] [--mbps X]
      [--drop-mbps Y] [--drop-at T] [--deadline D] [--scheme S ...]
      [--seed K] [--queue-depth Q] [--json PATH]
      [--faults] [--blackout-start T] [--blackout-duration D]
                               multi-client offload gateway scenario;
                               --faults runs the blackout fault scenario
                               (resilience policy vs no policy) instead
fleet [--servers N] [--clients C] [--rate R] [--horizon T] [--model M]
      [--mbps X] [--deadline D] [--placement P] [--scheme S] [--seed K]
      [--queue-depth Q] [--compare-single] [--json PATH]
      [--cloud-gpus K] [--max-batch B] [--max-wait S] [--cloud-policy P]
      [--telemetry] [--slo] [--watch]
                               N-server fleet through the unified
                               SystemConfig/run_system API: placement,
                               admission, per-server audit; exit 1 on
                               any accounting/clock violation.
                               --cloud-gpus > 0 routes all cloud stages
                               through K shared hold-and-batch GPUs
                               (repro.cloud) and reports batching stats.
                               --telemetry records windowed time-series
                               into the report, --slo evaluates the
                               default burn-rate objectives, --watch
                               prints the per-window operator table
experiment NAME [--jobs J]     regenerate a paper artifact
                               (fig4 | fig11 | fig12 | fig13 | fig14 | table1
                                | serving | fleet | cloud)
dot MODEL [--mbps X]           Graphviz DOT with the JPS cut highlighted
energy MODEL [--radio R]       energy-latency Pareto frontier
campaign OUT [--quick] [--compare OLD] [--tolerance T] [--jobs J]
                               run every experiment, save JSON, diff runs
trace TARGET [--out PATH] [--prom PATH] [--seed K]
      [--scenario S] [--timeline PATH]
                               run a target (serving | experiment | fleet)
                               under the tracer; export a Perfetto-loadable
                               Chrome trace and optionally a Prometheus
                               exposition. fleet runs an SLO acceptance
                               scenario (--scenario steady | blackout |
                               contended) with per-server and per-GPU lanes
                               and can also write the telemetry timeline
                               JSON (--timeline)
report PATH [--timeline] [--watch] [--every S]
                               render a saved SystemReport JSON: alert
                               summary by default, ASCII timeline plots
                               (--timeline), or the per-window operator
                               table (--watch)
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.cloud import BATCHING_POLICIES
from repro.core.analysis import fractional_lower_bound, speedup_report
from repro.core.joint import SplitMode, Structure
from repro.core.plans import Schedule
from repro.experiments import (
    fig4,
    fig11,
    fig12,
    fig13,
    fig14,
    fig_cloud,
    fig_fleet,
    fig_serving,
    table1,
)
from repro.experiments.runner import SCHEMES, ExperimentEnv
from repro.fleet import PLACEMENT_POLICIES
from repro.fleet.config import SLO_SCENARIOS
from repro.nn.zoo import MODELS
from repro.serving.gateway import GATEWAY_SCHEMES
from repro.sim.pipeline import simulate_schedule
from repro.sim.trace import render_gantt

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Joint DNN partition and scheduling (ICPP'21 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list available models")

    p = sub.add_parser("summary", help="per-layer summary of a model")
    p.add_argument("model", choices=sorted(MODELS))

    p = sub.add_parser("table", help="print a model's cost table")
    p.add_argument("model", choices=sorted(MODELS))
    p.add_argument("--mbps", type=float, default=5.85, help="uplink rate (Mbps)")

    p = sub.add_parser("plan", help="plan a job set with one scheme")
    p.add_argument("model", choices=sorted(MODELS))
    p.add_argument("-n", "--jobs", type=int, default=100)
    p.add_argument("--mbps", type=float, default=5.85)
    p.add_argument("--scheme", choices=SCHEMES + ["JPS-ratio"], default="JPS")
    p.add_argument(
        "--structure",
        choices=Structure.values(),
        default=Structure.AUTO.value,
        help="graph treatment for JPS (auto picks line vs frontier)",
    )
    p.add_argument(
        "--split",
        choices=SplitMode.values(),
        default=SplitMode.EXACT.value,
        help="two-type split rule at the crossing layer",
    )
    p.add_argument("--json", action="store_true", help="emit the schedule as JSON")
    p.add_argument("--gantt", action="store_true", help="draw the pipeline timeline")

    p = sub.add_parser("compare", help="all schemes side by side")
    p.add_argument("model", choices=sorted(MODELS))
    p.add_argument("-n", "--jobs", type=int, default=100)
    p.add_argument("--mbps", type=float, default=5.85)
    p.add_argument("--json", action="store_true", help="emit all schedules as JSON")

    p = sub.add_parser("serve", help="run the multi-client offload gateway")
    p.add_argument("--clients", type=int, default=3, help="number of Poisson clients")
    p.add_argument("--rate", type=float, default=2.0, help="per-client req/s")
    p.add_argument("--horizon", type=float, default=60.0, help="arrival window (s)")
    p.add_argument("--model", choices=sorted(MODELS), default="alexnet")
    p.add_argument("--mbps", type=float, default=8.0, help="initial uplink rate")
    p.add_argument(
        "--drop-mbps", type=float, default=4.0,
        help="uplink rate after the mid-run drop (== --mbps for a flat trace)",
    )
    p.add_argument(
        "--drop-at", type=float, default=None,
        help="when the rate drops (default: mid-horizon)",
    )
    p.add_argument(
        "--deadline", type=float, default=None,
        help="per-request relative deadline (s); expired requests are dropped",
    )
    p.add_argument(
        "--scheme", action="append", choices=list(GATEWAY_SCHEMES), default=None,
        help="scheme(s) to serve under (repeatable; default JPS, LO, CO)",
    )
    p.add_argument("--seed", type=int, default=None, help="workload seed")
    p.add_argument("--queue-depth", type=int, default=64, help="per-client queue bound")
    p.add_argument(
        "--json", metavar="PATH",
        help="write the full metrics report as JSON ('-' for stdout)",
    )
    p.add_argument(
        "--faults", action="store_true",
        help="run the blackout fault scenario: the resilience policy "
             "(degrade to local-only, probe, recover) vs no policy on the "
             "identical stream (see docs/robustness.md)",
    )
    p.add_argument(
        "--blackout-start", type=float, default=8.0,
        help="uplink blackout start (s; --faults only)",
    )
    p.add_argument(
        "--blackout-duration", type=float, default=2.0,
        help="uplink blackout length (s; --faults only)",
    )

    p = sub.add_parser("fleet", help="run an N-server fleet via run_system")
    p.add_argument("--servers", type=int, default=4, help="number of fleet servers")
    p.add_argument("--clients", type=int, default=32, help="number of Poisson clients")
    p.add_argument("--rate", type=float, default=3.0, help="per-client req/s")
    p.add_argument("--horizon", type=float, default=12.0, help="arrival window (s)")
    p.add_argument("--model", choices=sorted(MODELS), default="alexnet")
    p.add_argument("--mbps", type=float, default=8.0, help="per-server uplink rate")
    p.add_argument(
        "--deadline", type=float, default=1.0,
        help="per-request relative deadline (s); <= 0 disables deadlines",
    )
    p.add_argument(
        "--placement", choices=list(PLACEMENT_POLICIES), default="least_loaded",
        help="client->server placement policy",
    )
    p.add_argument("--scheme", choices=list(GATEWAY_SCHEMES), default="JPS")
    p.add_argument("--seed", type=int, default=None, help="workload seed")
    p.add_argument("--queue-depth", type=int, default=64, help="per-client queue bound")
    p.add_argument(
        "--compare-single", action="store_true",
        help="also serve the identical stream on one server and report the "
             "within-deadline gain of the fleet",
    )
    p.add_argument(
        "--json", metavar="PATH",
        help="write the SystemReport as JSON ('-' for stdout)",
    )
    p.add_argument(
        "--cloud-gpus", type=int, default=0,
        help="share K hold-and-batch cloud GPUs across the fleet "
             "(0 = per-server private cloud, the default)",
    )
    p.add_argument(
        "--max-batch", type=int, default=8,
        help="GPU batch-size cap (with --cloud-gpus)",
    )
    p.add_argument(
        "--max-wait", type=float, default=0.02,
        help="hold-and-batch wait window in seconds (with --cloud-gpus)",
    )
    p.add_argument(
        "--cloud-policy", choices=list(BATCHING_POLICIES), default="batch",
        help="GPU dispatch policy (with --cloud-gpus)",
    )
    p.add_argument(
        "--telemetry", action="store_true",
        help="record windowed time-series into the report's timeline section",
    )
    p.add_argument(
        "--slo", action="store_true",
        help="evaluate the default burn-rate SLOs (implies --telemetry)",
    )
    p.add_argument(
        "--watch", action="store_true",
        help="print the per-window operator table after the run "
             "(implies --telemetry)",
    )

    p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p.add_argument(
        "name",
        choices=[
            "fig4", "fig11", "fig12", "fig13", "fig14", "table1", "serving",
            "fleet", "cloud",
        ],
    )
    p.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for grid experiments (fig12/fig13/table1)",
    )

    p = sub.add_parser("dot", help="Graphviz DOT of a model, JPS cut highlighted")
    p.add_argument("model", choices=sorted(MODELS))
    p.add_argument("--mbps", type=float, default=5.85)

    p = sub.add_parser("energy", help="energy-latency frontier of a model")
    p.add_argument("model", choices=sorted(MODELS))
    p.add_argument("--mbps", type=float, default=5.85)
    p.add_argument("--radio", choices=["wifi", "cellular"], default="wifi")

    p = sub.add_parser(
        "campaign", help="run every experiment, save JSON, optionally diff"
    )
    p.add_argument("output", help="path for the campaign JSON")
    p.add_argument("--quick", action="store_true", help="small n / short sweeps")
    p.add_argument("--compare", help="previous campaign JSON to diff against")
    p.add_argument("--tolerance", type=float, default=0.05)
    p.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the planning grids (default: serial)",
    )

    p = sub.add_parser(
        "trace", help="run a target under the tracer, export Chrome trace JSON"
    )
    p.add_argument(
        "target",
        choices=["serving", "experiment", "fleet"],
        help="serving: the default gateway scenario; experiment: a scheme "
             "grid; fleet: an SLO acceptance scenario with per-server and "
             "per-GPU lanes",
    )
    p.add_argument(
        "--out", default="trace.json",
        help="Chrome trace-event JSON path (load in ui.perfetto.dev)",
    )
    p.add_argument(
        "--prom", metavar="PATH", default=None,
        help="also write the Prometheus exposition "
             "('-' for stdout; serving and fleet targets)",
    )
    p.add_argument(
        "--seed", type=int, default=None, help="workload seed (serving, fleet)"
    )
    p.add_argument(
        "--scenario", choices=list(SLO_SCENARIOS), default="blackout",
        help="which SLO acceptance scenario the fleet target runs",
    )
    p.add_argument(
        "--timeline", metavar="PATH", default=None,
        help="also write the telemetry timeline + alerts JSON "
             "('-' for stdout; fleet only)",
    )

    p = sub.add_parser(
        "report", help="render a saved SystemReport JSON (alerts, timeline)"
    )
    p.add_argument("path", help="SystemReport JSON written by 'repro fleet --json'")
    p.add_argument(
        "--timeline", action="store_true",
        help="ASCII plots of the windowed telemetry series",
    )
    p.add_argument(
        "--watch", action="store_true",
        help="the per-window operator table instead of plots",
    )
    p.add_argument(
        "--every", type=float, default=1.0,
        help="watch-table window width in seconds",
    )
    return parser


def _print_schedule(schedule: Schedule, n: int) -> None:
    print(f"scheme        : {schedule.method}")
    print(f"makespan      : {schedule.makespan:.3f} s")
    print(f"avg latency   : {schedule.makespan / n * 1e3:.1f} ms/job")
    histogram = schedule.cut_histogram()
    labels = {p.cut_position: p.cut_label for p in schedule.jobs}
    for position, count in histogram.items():
        print(f"  cut {labels[position]:<36s} x {count}")
    if "l_star" in schedule.metadata:
        print(f"l* = {schedule.metadata['l_star']}, "
              f"split = {schedule.metadata.get('n_a')}/{schedule.metadata.get('n_b')}")


def _print_alerts(alerts: dict) -> None:
    """One line per SLO alert, plus the fired/cleared totals."""
    print(
        f"slo alerts: {alerts['fired']} fired, {alerts['cleared']} cleared, "
        f"{alerts['active_at_end']} active at end"
    )
    for block in alerts.get("slos", []):
        name = block["slo"]["name"]
        for alert in block.get("alerts", []):
            cleared = alert.get("cleared_at")
            until = f"cleared {cleared:.2f}s" if cleared is not None else "active"
            print(
                f"  {name}: fired {alert['fired_at']:.2f}s ({until}, "
                f"burn {alert['burn_rate']:.2f}x over {alert['events']} events)"
            )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    env = ExperimentEnv()

    if args.command == "models":
        print(f"{'name':<16s} {'layers':>6s} {'GFLOPs':>8s} {'params(M)':>10s} {'structure':>10s}")
        for name in sorted(MODELS):
            net = env.network(name)
            structure = "line" if env.treats_as_line(name) else "general"
            print(f"{name:<16s} {net.num_layers:>6d} {net.total_flops / 1e9:>8.2f} "
                  f"{net.total_params / 1e6:>10.2f} {structure:>10s}")
        return 0

    if args.command == "summary":
        print(env.network(args.model).summary())
        return 0

    if args.command == "table":
        table = env.cost_table(args.model, args.mbps)
        print(f"{args.model} @ {args.mbps:g} Mbps — {table.k} cut positions")
        print(f"{'position':<40s} {'f (ms)':>9s} {'g (ms)':>9s} {'cloud rest (ms)':>16s}")
        for i, position in enumerate(table.positions):
            print(f"{position:<40s} {table.f[i] * 1e3:>9.1f} {table.g[i] * 1e3:>9.1f} "
                  f"{table.cloud_rest(i) * 1e3:>16.2f}")
        return 0

    if args.command == "plan":
        from repro import api

        scheme = args.scheme
        split = args.split
        if scheme == "JPS-ratio":        # legacy spelling of --scheme JPS --split ratio
            scheme, split = "JPS", SplitMode.RATIO.value
        schedule = api.plan(
            args.model,
            n=args.jobs,
            bandwidth=args.mbps,
            scheme=scheme,
            structure=args.structure,
            split=split,
        )
        if args.json:
            print(json.dumps(schedule.to_dict(), indent=2, sort_keys=True))
            return 0
        _print_schedule(schedule, args.jobs)
        if args.gantt:
            slice_ = Schedule(
                jobs=schedule.jobs[: min(8, len(schedule.jobs))],
                makespan=0.0,
                method=schedule.method,
            )
            print()
            print(render_gantt(simulate_schedule(slice_)))
        return 0

    if args.command == "compare":
        table = env.cost_table(args.model, args.mbps)
        schedules = {
            scheme: env.run_scheme(args.model, args.mbps, args.jobs, scheme)
            for scheme in SCHEMES
        }
        bound = fractional_lower_bound(table, args.jobs)
        if args.json:
            document = {
                "model": args.model,
                "mbps": args.mbps,
                "n": args.jobs,
                "lp_lower_bound": bound,
                "schedules": {s: sched.to_dict() for s, sched in schedules.items()},
            }
            print(json.dumps(document, indent=2, sort_keys=True))
            return 0
        print(f"{args.model} @ {args.mbps:g} Mbps, {args.jobs} jobs")
        print(f"{'scheme':<6s} {'makespan (s)':>12s} {'ms/job':>8s}")
        for scheme, schedule in schedules.items():
            print(f"{scheme:<6s} {schedule.makespan:>12.2f} "
                  f"{schedule.makespan / args.jobs * 1e3:>8.1f}")
        print(f"{'LP-LB':<6s} {bound:>12.2f} {bound / args.jobs * 1e3:>8.1f}")
        reductions = speedup_report(schedules)
        print("reduction vs LO: "
              + ", ".join(f"{k} {v:.1f}%" for k, v in reductions.items()))
        return 0

    if args.command == "dot":
        from repro.dag.metrics import to_dot

        # the engine's JPS plan carries each job's mobile node set, on
        # line, frontier and DAG models alike
        schedule = env.engine.plan(args.model, 10, env.channel(args.mbps))
        mobile_nodes = next(
            (p.mobile_nodes for p in schedule.jobs if p.mobile_nodes), None
        )
        graph = env.network(args.model).graph
        print(to_dot(graph, mobile_nodes=mobile_nodes or ()))
        return 0

    if args.command == "energy":
        from repro.profiling.energy import (
            CELLULAR_POWER,
            WIFI_POWER,
            energy_latency_frontier,
        )

        power = WIFI_POWER if args.radio == "wifi" else CELLULAR_POWER
        table = env.cost_table(args.model, args.mbps)
        frontier = energy_latency_frontier(table, power)
        print(f"{args.model} @ {args.mbps:g} Mbps, {power.name} radio — "
              f"{len(frontier)} Pareto points of {table.k} cuts")
        for point in frontier:
            print(f"  {point.label:<40s} {point.per_job_latency * 1e3:8.1f} ms "
                  f"{point.per_job_energy:7.2f} J")
        return 0

    if args.command == "serve" and args.faults:
        import dataclasses
        from pathlib import Path

        from repro.fleet import blackout_fleet_scenario, run_system
        from repro.utils.rng import DEFAULT_SEED

        deadline = args.deadline if args.deadline is not None else 1.0
        config = blackout_fleet_scenario(
            clients=args.clients,
            rate=args.rate,
            horizon=args.horizon,
            model=args.model,
            seed=args.seed if args.seed is not None else DEFAULT_SEED,
            blackout_start=args.blackout_start,
            blackout_duration=args.blackout_duration,
            deadline=deadline,
            mbps=args.mbps,
        )
        # the policy run plus its no-policy baseline on the identical stream
        config = dataclasses.replace(
            config,
            faults=dataclasses.replace(config.faults, compare_no_policy=True),
        )
        report = run_system(config)
        if args.json == "-":
            print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
            return 0
        comparison = report.comparison
        print(
            f"{args.model}: {args.clients} clients x {args.rate:g} "
            f"req/s over {args.horizon:g}s, blackout "
            f"{args.blackout_start:g}s +{args.blackout_duration:g}s, "
            f"deadline {deadline:g}s ({report.arrivals} arrivals)"
        )
        print(f"{'side':<10s} {'in-deadline':>12s} {'completed':>10s} {'dropped':>8s}")
        for side, run in (("policy", report), ("no_policy", report.baseline)):
            print(
                f"{side:<10s} {run.within_deadline:>12d} "
                f"{run.fleet['completed']:>10d} {run.fleet['dropped']:>8d}"
            )
        violations = len(report.violations) + len(report.baseline.violations)
        print(
            f"degradations {comparison['degradations']}, "
            f"recovery replans {comparison['recovery_replans']}, "
            f"within-deadline gain {comparison['within_deadline_gain']:+d}, "
            f"accounting violations {violations}"
        )
        if args.json:
            Path(args.json).write_text(
                json.dumps(report.as_dict(), indent=2, sort_keys=True)
            )
            print(f"fault scenario report written to {args.json}")
        return 0 if violations == 0 else 1

    if args.command == "serve":
        import dataclasses

        from repro.engine import PlanningEngine
        from repro.fleet import bandwidth_drop_scenario, run_system
        from repro.utils.rng import DEFAULT_SEED

        schemes = (
            tuple(dict.fromkeys(args.scheme)) if args.scheme else ("JPS", "LO", "CO")
        )
        config = bandwidth_drop_scenario(
            clients=args.clients,
            rate=args.rate,
            horizon=args.horizon,
            model=args.model,
            seed=args.seed if args.seed is not None else DEFAULT_SEED,
            drop_at=args.drop_at,
            mbps_before=args.mbps,
            mbps_after=args.drop_mbps,
            deadline=args.deadline,
        )
        (server,) = config.servers
        config = dataclasses.replace(
            config,
            servers=(dataclasses.replace(server, max_queue_depth=args.queue_depth),),
        )
        # one shared planner: later schemes re-plan from warm structure caches
        planner = PlanningEngine()
        reports = {
            scheme: run_system(dataclasses.replace(config, scheme=scheme), planner=planner)
            for scheme in schemes
        }
        document = {
            "schemes": {scheme: report.as_dict() for scheme, report in reports.items()}
        }
        if args.json == "-":
            print(json.dumps(document, indent=2, sort_keys=True))
            return 0
        first = reports[schemes[0]]
        print(
            f"{args.model}: {args.clients} clients x {args.rate:g} req/s over "
            f"{args.horizon:g}s, uplink {args.mbps:g} -> {args.drop_mbps:g} Mbps "
            f"({first.arrivals} arrivals, {first.offered_load_rps:.2f} req/s)"
        )
        print(
            f"{'scheme':<6s} {'served':>7s} {'dropped':>8s} {'p50':>8s} {'p95':>8s} "
            f"{'p99':>8s} {'thr/s':>7s} {'replans':>8s}"
        )
        for scheme, report in reports.items():
            data = report.servers["gateway"]["report"]
            counters = data["counters"]
            latency = data["histograms"]["latency"]
            print(
                f"{scheme:<6s} {counters.get('served', 0):>7d} "
                f"{counters.get('dropped', 0):>8d} {latency['p50']:>7.2f}s "
                f"{latency['p95']:>7.2f}s {latency['p99']:>7.2f}s "
                f"{data['throughput_rps']:>7.2f} {len(data['replans']):>8d}"
            )
        if args.json:
            from pathlib import Path

            Path(args.json).write_text(json.dumps(document, indent=2, sort_keys=True))
            print(f"metrics report written to {args.json}")
        return 0

    if args.command == "fleet":
        from pathlib import Path

        import dataclasses

        from repro.cloud import CloudConfig
        from repro.engine import PlanningEngine
        from repro.fleet import default_fleet, run_system
        from repro.utils.rng import DEFAULT_SEED

        seed = args.seed if args.seed is not None else DEFAULT_SEED
        deadline = args.deadline if args.deadline > 0 else None
        planner = PlanningEngine()
        want_telemetry = args.telemetry or args.slo or args.watch

        def _config(servers: int):
            config = default_fleet(
                servers=servers,
                clients=args.clients,
                rate=args.rate,
                horizon=args.horizon,
                model=args.model,
                mbps=args.mbps,
                deadline=deadline,
                seed=seed,
                placement=args.placement,
                scheme=args.scheme,
                max_queue_depth=args.queue_depth,
            )
            if args.cloud_gpus > 0:
                config = dataclasses.replace(
                    config,
                    cloud=CloudConfig(
                        gpus=args.cloud_gpus,
                        max_batch=args.max_batch,
                        max_wait=args.max_wait,
                        policy=args.cloud_policy,
                    ),
                )
            if want_telemetry:
                from repro.fleet.config import with_slo_telemetry

                # --slo attaches the default burn-rate objectives;
                # --telemetry/--watch alone record the timeline only
                config = with_slo_telemetry(
                    config, slos=None if args.slo else ()
                )
            return config

        report = run_system(_config(args.servers), planner=planner)
        document = report.as_dict()
        violations = len(report.violations) + len(report.clock_violations)
        if args.compare_single and args.servers != 1:
            single = run_system(_config(1), planner=planner)
            violations += len(single.violations) + len(single.clock_violations)
            document["single_server"] = single.as_dict()["fleet"]
            document["fleet_gain_within_deadline"] = (
                report.within_deadline - single.within_deadline
            )
        if args.json == "-":
            print(json.dumps(document, indent=2, sort_keys=True))
            return 0 if violations == 0 else 1
        print(
            f"{args.model}: {args.servers} servers ({args.scheme}, "
            f"{args.placement}), {args.clients} clients x {args.rate:g} req/s "
            f"over {args.horizon:g}s ({report.arrivals} arrivals, "
            f"{report.offered_load_rps:.2f} req/s offered)"
        )
        print(
            f"{'server':<10s} {'arrived':>8s} {'served':>7s} {'within':>7s} "
            f"{'dropped':>8s} {'pending':>8s} {'replans':>8s}"
        )
        for name, block in report.servers.items():
            counters = block["report"]["counters"]
            print(
                f"{name:<10s} {counters.get('arrived', 0):>8d} "
                f"{counters.get('served', 0):>7d} {block['within_deadline']:>7d} "
                f"{counters.get('dropped', 0):>8d} "
                f"{block['report']['pending']:>8d} "
                f"{len(block['report']['replans']):>8d}"
            )
        fleet = report.fleet
        print(
            f"fleet: served {fleet['served']}/{fleet['arrivals']}, "
            f"within deadline {fleet['within_deadline']}, "
            f"rejected at fleet {fleet['rejected_fleet']}, "
            f"migrations {len(fleet['placement']['migrations'])}, "
            f"violations {violations}"
        )
        print(
            f"latency p50/p95/p99: {fleet['latency']['p50']:.3f}s / "
            f"{fleet['latency']['p95']:.3f}s / {fleet['latency']['p99']:.3f}s, "
            f"sustained {fleet['sustained_rps']:.2f} req/s"
        )
        if "cloud" in fleet:
            batches = sum(gpu["batches"] for gpu in fleet["cloud"]["servers"])
            items = sum(
                gpu["batched_requests"] for gpu in fleet["cloud"]["servers"]
            )
            mean_batch = items / batches if batches else 0.0
            print(
                f"cloud: {fleet['cloud']['gpus']} GPU(s), policy "
                f"{fleet['cloud']['policy']} (max-batch "
                f"{fleet['cloud']['max_batch']}, max-wait "
                f"{fleet['cloud']['max_wait']:g}s), {batches} batches / "
                f"{items} requests, mean batch size {mean_batch:.2f}"
            )
        if args.compare_single and args.servers != 1:
            print(
                f"vs single server: within-deadline "
                f"{document['single_server']['within_deadline']} -> "
                f"{fleet['within_deadline']} "
                f"({document['fleet_gain_within_deadline']:+d})"
            )
        if report.alerts:
            _print_alerts(report.alerts)
        if args.watch and report.timeline:
            from repro.obs.render import watch_table

            print()
            print(watch_table(report.timeline, report.alerts))
        if args.json:
            Path(args.json).write_text(json.dumps(document, indent=2, sort_keys=True))
            print(f"system report written to {args.json}")
        return 0 if violations == 0 else 1

    if args.command == "campaign":
        from repro.experiments.campaign import (
            compare_campaigns,
            load_campaign,
            run_campaign,
            save_campaign,
        )

        document = run_campaign(env, quick=args.quick, jobs=args.jobs)
        path = save_campaign(document, args.output)
        print(f"campaign saved to {path}")
        if args.compare:
            problems = compare_campaigns(
                load_campaign(args.compare), document, rel_tolerance=args.tolerance
            )
            if problems:
                print(f"{len(problems)} regressions vs {args.compare}:")
                for problem in problems[:40]:
                    print(f"  {problem}")
                return 1
            print(f"no regressions vs {args.compare} (tolerance {args.tolerance:g})")
        return 0

    if args.command == "trace":
        import dataclasses
        from pathlib import Path

        from repro.obs import Tracer, exposition_from_snapshot, write_chrome_trace

        tracer = Tracer()
        exposition = None
        if args.timeline and args.target != "fleet":
            print("--timeline requires the fleet target", file=sys.stderr)
            return 2
        if args.target == "serving":
            from repro.engine import PlanningEngine
            from repro.fleet import bandwidth_drop_scenario, run_system
            from repro.utils.rng import DEFAULT_SEED

            # the planner shares the tracer, so its cold-cache builds land
            # in the same trace as the gateway spans
            planner = PlanningEngine(tracer=tracer)
            seed = args.seed if args.seed is not None else DEFAULT_SEED
            reports = [
                run_system(
                    bandwidth_drop_scenario(seed=seed, scheme=scheme),
                    planner=planner,
                    tracer=tracer,
                )
                for scheme in ("JPS", "LO", "CO")
            ]
            # first scheme's report: gateway counters + engine cache gauges
            exposition = exposition_from_snapshot(
                reports[0].servers["gateway"]["report"]
            )
        elif args.target == "fleet":
            from repro.fleet.config import slo_acceptance_scenario
            from repro.fleet.fleet import run_system

            config = slo_acceptance_scenario(args.scenario)
            if args.seed is not None:
                config = dataclasses.replace(
                    config,
                    workload=dataclasses.replace(
                        config.workload, seed=args.seed
                    ),
                )
            report = run_system(config, tracer=tracer)
            # the fleet registry snapshot rides inside the timeline
            exposition = exposition_from_snapshot(
                report.timeline.get("metrics", {})
            )
            print(
                f"{args.scenario}: served {report.served}/{report.arrivals}, "
                f"within deadline {report.within_deadline}, "
                f"ok {report.ok}"
            )
            if report.alerts:
                _print_alerts(report.alerts)
            if args.timeline:
                timeline_doc = json.dumps(
                    {
                        "scenario": args.scenario,
                        "timeline": report.timeline,
                        "alerts": report.alerts,
                    },
                    indent=2,
                    sort_keys=True,
                )
                if args.timeline == "-":
                    print(timeline_doc)
                else:
                    Path(args.timeline).write_text(timeline_doc)
                    print(f"timeline JSON written to {args.timeline}")
        else:
            if args.prom:
                print("--prom requires the serving or fleet target", file=sys.stderr)
                return 2
            env.tracer = tracer
            env.scheme_grid(["alexnet", "googlenet"], 10.0, 20)
        path = write_chrome_trace(args.out, tracer.spans, tracer.instants)
        print(
            f"{len(tracer.spans)} spans, {len(tracer.instants)} instant events "
            f"-> {path} (load in ui.perfetto.dev)"
        )
        if args.prom == "-":
            print(exposition, end="")
        elif args.prom:
            Path(args.prom).write_text(exposition)
            print(f"prometheus exposition written to {args.prom}")
        return 0

    if args.command == "report":
        from pathlib import Path

        from repro.obs.render import render_timeline, watch_table

        document = json.loads(Path(args.path).read_text())
        timeline = document.get("timeline") or {}
        alerts = document.get("alerts")
        if args.watch:
            print(watch_table(timeline, alerts, every=args.every))
            return 0
        if args.timeline:
            print(render_timeline(timeline))
            return 0
        fleet = document.get("fleet", {})
        if fleet:
            print(
                f"fleet: served {fleet.get('served', 0)}"
                f"/{fleet.get('arrivals', document.get('arrivals', 0))}, "
                f"within deadline {fleet.get('within_deadline', 0)}"
            )
        if alerts:
            _print_alerts(alerts)
        elif "alerts" not in document:
            print("(no SLOs configured; run 'repro fleet --slo --json PATH')")
        if not timeline:
            print("(no telemetry timeline; run 'repro fleet --telemetry --json PATH')")
        return 0

    if args.command == "experiment":
        harness = {
            "fig4": lambda: fig4.render(fig4.run(env)),
            "fig11": lambda: fig11.render(fig11.run(env)),
            "fig12": lambda: fig12.render(fig12.run(env, jobs=args.jobs)),
            "fig13": lambda: fig13.render(fig13.run(env, jobs=args.jobs)),
            "fig14": lambda: fig14.render(fig14.run(env, n=100)),
            "table1": lambda: table1.render(table1.run(env, jobs=args.jobs)),
            "serving": lambda: fig_serving.render(fig_serving.run()),
            "fleet": lambda: fig_fleet.render(fig_fleet.run()),
            "cloud": lambda: fig_cloud.render(fig_cloud.run()),
        }[args.name]
        print(harness())
        return 0

    return 1  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
