"""Extensions bench — heterogeneous job sets and the LP lower bound.

(a) Heterogeneous pooling: two models' jobs interleaved through one
    Johnson schedule at the exact joint optimum, against running the
    groups back to back — each planned by JPS, or at its own optimum.
(b) Bound tightness: JPS vs the fractional LP lower bound across the
    experiment grid — how much makespan is left on the table anywhere.
"""

from repro.core.analysis import fractional_lower_bound
from repro.core.baselines import brute_force
from repro.core.joint import jps_line
from repro.experiments.report import format_table
from repro.experiments.runner import EXPERIMENT_MODELS
from repro.extensions.heterogeneous import ModelJobs, jps_heterogeneous


def test_heterogeneous_pooling(benchmark, env, save_artifact):
    def run_all():
        rows = []
        pairs = [("alexnet", "mobilenet-v2"), ("resnet18", "googlenet")]
        for left, right in pairs:
            groups = [
                ModelJobs(table=env.cost_table(model, 10.0), count=20) for model in (left, right)
            ]
            back_to_back_jps = sum(jps_line(g.table, g.count).makespan for g in groups)
            back_to_back_optimum = sum(brute_force(g.table, g.count).makespan for g in groups)
            pooled = jps_heterogeneous(groups).makespan
            rows.append(
                (
                    f"{left}+{right}",
                    back_to_back_jps,
                    back_to_back_optimum,
                    pooled,
                    (1 - pooled / back_to_back_jps) * 100,
                )
            )
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    save_artifact(
        "extensions_heterogeneous",
        format_table(
            headers=["mix (20+20 jobs)", "back-to-back JPS (s)", "back-to-back optimum (s)",
                     "pooled optimum (s)", "saved (%)"],
            rows=rows,
            title="Extension — heterogeneous job sets at 10 Mbps",
            float_format="{:.2f}",
        ),
    )
    for _, back_to_back_jps, back_to_back_optimum, pooled, _ in rows:
        assert pooled <= back_to_back_optimum + 1e-9
        assert back_to_back_optimum <= back_to_back_jps + 1e-9


def test_lower_bound_tightness(benchmark, env, save_artifact):
    n = 100

    def run_all():
        rows = []
        for model in EXPERIMENT_MODELS:
            for bandwidth in (1.1, 5.85, 18.88):
                table = env.cost_table(model, bandwidth)
                jps = jps_line(table, n).makespan
                bound = fractional_lower_bound(table, n)
                rows.append((model, bandwidth, bound, jps, (jps / bound - 1) * 100))
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    save_artifact(
        "extensions_lower_bound",
        format_table(
            headers=["model", "Mbps", "LP bound (s)", "JPS (s)", "gap (%)"],
            rows=rows,
            title=f"JPS vs fractional lower bound ({n} jobs)",
            float_format="{:.2f}",
        ),
    )
    for _, _, bound, jps, gap in rows:
        assert jps >= bound - 1e-9
        assert gap < 12.0  # JPS is near-optimal against *any* scheme