"""Zoo-wide sweep: JPS vs LO/CO across every model in the registry.

Not a paper figure — a completeness check that the whole pipeline
(build → cluster/enumerate → plan → price) works for every architecture
family in the zoo, including the heavyweight Inception-v4 (65 billion
paths) and the multi-task tree network.
"""

from repro.core.baselines import cloud_only, local_only
from repro.core.joint import jps_line
from repro.experiments.report import format_table
from repro.nn.zoo import MODELS, get_model
from repro.profiling.latency import line_cost_table

N_JOBS = 25
SKIP = {"alexnet-prime", "line-dnn"}  # aliases/synthetic duplicates


def test_zoo_sweep(benchmark, env, save_artifact):
    models = sorted(set(MODELS) - SKIP)

    def run_all():
        rows = []
        for name in models:
            network = get_model(name)
            structure = env.engine.structure_of(name).value
            if env.treats_as_line(name):
                table = line_cost_table(network, env.mobile, env.cloud, env.channel(5.85))
            else:
                table = env.cost_table(name, 5.85)
            lo = local_only(table, N_JOBS).average_completion
            co = cloud_only(table, N_JOBS).average_completion
            jps = jps_line(table, N_JOBS).average_completion
            rows.append(
                (
                    name,
                    structure,
                    table.k,
                    lo * 1e3,
                    co * 1e3,
                    jps * 1e3,
                    (1 - jps / min(lo, co)) * 100,
                )
            )
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    save_artifact(
        "zoo_sweep",
        format_table(
            headers=["model", "structure", "cuts", "LO (ms)", "CO (ms)",
                     "JPS (ms)", "gain vs best baseline (%)"],
            rows=rows,
            title=f"Zoo-wide JPS sweep ({N_JOBS} jobs, 4G)",
            float_format="{:.1f}",
        ),
    )
    for name, structure, k, lo, co, jps, gain in rows:
        assert jps <= min(lo, co) + 1e-9
        assert k >= 2
