"""Optimality probe at paper scale (n = 100).

Sandwiches JPS between the fractional LP lower bound and the exact
optimum over cut multisets (:func:`repro.core.baselines.brute_force`,
a dynamic program that reaches n = 100), for every experiment model at
4G.
"""

from repro.core.analysis import fractional_lower_bound
from repro.core.baselines import brute_force
from repro.core.joint import jps_line
from repro.experiments.report import format_table
from repro.experiments.runner import EXPERIMENT_MODELS

N_JOBS = 100


def test_optimality_probe_at_scale(benchmark, env, save_artifact):
    def run_all():
        rows = []
        for model in EXPERIMENT_MODELS:
            table = env.cost_table(model, 5.85)
            bound = fractional_lower_bound(table, N_JOBS)
            jps = jps_line(table, N_JOBS)
            optimum = brute_force(table, N_JOBS)
            rows.append(
                (
                    model,
                    bound,
                    optimum.makespan,
                    jps.makespan,
                    (jps.makespan / bound - 1) * 100,
                )
            )
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    save_artifact(
        "optimality_probe_n100",
        format_table(
            headers=["model", "LP bound (s)", "optimum (s)", "JPS (s)",
                     "JPS vs bound (%)"],
            rows=rows,
            title=f"Optimality probe at n = {N_JOBS} (4G)",
            float_format="{:.3f}",
        ),
    )
    for model, bound, optimum, jps, gap in rows:
        assert bound <= optimum + 1e-9
        assert optimum <= jps + 1e-9
        # JPS within 11% of the LP bound
        assert gap < 11.0
