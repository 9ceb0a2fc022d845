"""Ablation — general-structure treatments on series-parallel DNNs.

linearized (collapse everything) vs frontier JPS (exact cut space) vs
Alg. 3 paths (paper heuristic, its own optimistic accounting), on
GoogLeNet and on a small Inception network where the faithful Fig.-9
conversion is still tractable.
"""

from repro.core.general import alg3_schedule
from repro.core.joint import jps_line
from repro.engine import PlanningEngine
from repro.experiments.report import format_table
from repro.nn import zoo
from repro.profiling.latency import line_cost_table

N_JOBS = 30


def test_general_structure_ablation(benchmark, env, save_artifact):
    mobile, cloud = env.mobile, env.cloud
    channel = env.channel(5.85)
    networks = [env.network("googlenet"), zoo.mini_inception(2)]
    engine = PlanningEngine(mobile=mobile, cloud=cloud)

    def run_all():
        rows = []
        for network in networks:
            linearized = jps_line(
                line_cost_table(network, mobile, cloud, channel), N_JOBS
            )
            frontier = engine.plan(network, N_JOBS, channel, structure="frontier")
            paths = alg3_schedule(network, mobile, cloud, channel, N_JOBS)
            rows.append(
                (
                    network.name,
                    linearized.makespan / N_JOBS * 1e3,
                    frontier.makespan / N_JOBS * 1e3,
                    paths.makespan / N_JOBS * 1e3,
                    paths.metadata["conversion"],
                )
            )
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    save_artifact(
        "ablation_general_structure",
        format_table(
            headers=["model", "linearized (ms/job)", "frontier (ms/job)",
                     "Alg.3 paths* (ms/job)", "conversion"],
            rows=rows,
            title=(
                "Ablation — general-structure treatments (30 jobs, 4G)\n"
                "*Alg.3 uses the paper's per-path accounting (not an executable plan)"
            ),
            float_format="{:.1f}",
        ),
    )

    for name, linearized, frontier, _, _ in rows:
        # keeping intra-module cuts never hurts
        assert frontier <= linearized + 1e-9
