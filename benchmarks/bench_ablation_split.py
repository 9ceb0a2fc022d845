"""Ablation — two-type split policies against brute force.

Compares, over the same crossing pair (l*-1, l*):

* the paper's floor-ratio rule (Alg. 2 line 9),
* the exact integer split (default JPS),

and, beyond that pair, the best two-type split over all position pairs
and the brute-force optimum over the full cut space.
"""

from repro.core.baselines import brute_force
from repro.core.joint import jps_line
from repro.experiments.report import format_table


def test_split_policy_ablation(benchmark, env, save_artifact):
    table = env.cost_table("alexnet", 10.0)

    def run_all():
        rows = []
        for n in (2, 4, 8, 12):
            ratio = jps_line(table, n, split="ratio")
            exact = jps_line(table, n, split="exact")
            pair = jps_line(table, n, split="pair")
            bf = brute_force(table, n)
            rows.append(
                (
                    n,
                    ratio.makespan * 1e3,
                    exact.makespan * 1e3,
                    pair.makespan * 1e3,
                    bf.makespan * 1e3,
                    (pair.makespan - bf.makespan) / bf.makespan * 100,
                )
            )
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    save_artifact(
        "ablation_split_policies",
        format_table(
            headers=["n", "ratio (ms)", "exact (ms)", "all-pairs (ms)", "BF (ms)",
                     "gap (%)"],
            rows=rows,
            title="Ablation — split policy vs brute force (AlexNet, 10 Mbps)",
            float_format="{:.2f}",
        ),
    )

    for n, ratio_ms, exact_ms, pair_ms, bf_ms, gap in rows:
        assert bf_ms <= pair_ms + 1e-9 <= exact_ms + 1e-9 <= ratio_ms + 1e-9
        assert gap < 5.0  # two types over the best pair sit near the optimum
