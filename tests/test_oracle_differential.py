"""Differential fuzz: planners vs their brute-force oracles.

Two instance families (line cost tables and true DAGs), two layers of
defense each: a seeded fuzz sweep over fresh random instances every run
(``--fuzz-rounds`` controls the budget; CI's fault-matrix job runs 200),
and an exact replay of the committed corpora in
``tests/data/oracle_corpus.json`` / ``tests/data/dag_oracle_corpus.json``
— instances where the planner must equal the exhaustive optimum to the
last bit (regenerate with ``python -m tests.oracles.harness [dag]``).

On a DAG fuzz failure the full mismatch report is also written as JSON
to the path in ``$DAG_ORACLE_REPORT`` (CI uploads it as an artifact).
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.dag.oracle import (
    TOLERANCE as DAG_TOLERANCE,
    check_dag_instance,
    dag_exhaustive_optimal,
)
from repro.faults.oracle import (
    TOLERANCE,
    check_instance,
    exhaustive_optimal,
    random_line_table,
)
from tests.helpers import make_table
from tests.oracles.harness import (
    DAG_EXACT_LIMIT,
    MAX_DAG_JOBS,
    MAX_DAG_NODES,
    MAX_JOBS,
    MAX_POSITIONS,
    MIN_DAG_NODES,
    check_dag_seed,
    check_seed,
    dag_instance_from_seed,
    instance_from_seed,
    load_corpus,
    load_dag_corpus,
)

#: Fuzz seeds live far from the corpus scan (which starts at 0), so
#: raising --fuzz-rounds never replays committed instances.
FUZZ_SEED_BASE = 1_000_000
DAG_FUZZ_SEED_BASE = 2_000_000


def test_fuzz_differential(fuzz_rounds):
    """No correctness mismatch on any random instance; gap never negative."""
    gaps = []
    for i in range(fuzz_rounds):
        result = check_seed(FUZZ_SEED_BASE + i)
        assert result.mismatches == (), (
            f"seed {FUZZ_SEED_BASE + i} (n={result.n}, k={result.k}): "
            f"{result.mismatches}"
        )
        assert result.gap >= -TOLERANCE
        gaps.append(result.gap)
    # the two-cut structure is near-optimal: most instances close the gap
    assert sum(1 for g in gaps if g == 0.0) > 0


def test_committed_corpus_is_exact():
    corpus = load_corpus()
    assert len(corpus) >= 24
    for entry in corpus:
        result = check_seed(entry["seed"])
        assert result.mismatches == ()
        assert result.n == entry["n"]
        assert result.k == entry["k"]
        # gap-0 corpus: JPS, its scalar reference, and the exhaustive
        # optimum agree bit-for-bit with the committed value
        assert result.gap == 0.0
        assert result.jps_makespan == entry["makespan"]
        assert result.reference_makespan == entry["makespan"]
        assert result.oracle_makespan == entry["makespan"]


def test_instance_expansion_is_deterministic_and_bounded():
    table_a, n_a = instance_from_seed(123)
    table_b, n_b = instance_from_seed(123)
    assert n_a == n_b
    assert np.array_equal(table_a.f, table_b.f)
    assert np.array_equal(table_a.g, table_b.g)
    assert 2 <= n_a <= MAX_JOBS
    assert 2 <= table_a.k <= MAX_POSITIONS


def test_oracle_hand_computed_instance():
    """k=2: cut 0 = (0, 1), cut 1 = (0.5, 0). The optimum mixes cuts."""
    table = make_table([0.0, 0.5], [1.0, 0.0])
    result = exhaustive_optimal(table, 2)
    assert result.makespan == pytest.approx(1.0)
    assert sorted(result.assignment) == [0, 1]
    # and the full differential check agrees with JPS on it
    check = check_instance(table, 2)
    assert check.mismatches == ()
    assert check.gap == pytest.approx(0.0)


def test_oracle_single_job_matches_min_cut():
    table = make_table([0.0, 0.2, 0.6], [0.7, 0.3, 0.0])
    result = exhaustive_optimal(table, 1)
    assert result.makespan == pytest.approx(
        min(f + g for f, g in (table.stage_lengths(p) for p in range(table.k)))
    )


def test_oracle_evaluation_guard():
    table = random_line_table(0, 8)
    with pytest.raises(ValueError, match="exhaustive search exceeded"):
        exhaustive_optimal(table, 6, max_evaluations=100)


def test_oracle_position_subset():
    table = make_table([0.0, 0.2, 0.6], [0.7, 0.3, 0.0])
    full = exhaustive_optimal(table, 2)
    narrowed = exhaustive_optimal(table, 2, positions=[0, 2])
    assert narrowed.makespan >= full.makespan - TOLERANCE
    assert set(narrowed.assignment) <= {0, 2}


# --------------------------------------------------------------------------
# DAG partitioner vs the 2^m-assignment oracle vs the Fig.-9 baseline
# --------------------------------------------------------------------------


def _write_dag_report(failures: list[dict]) -> None:
    """Dump fuzz mismatches to ``$DAG_ORACLE_REPORT`` for CI artifacts."""
    path = os.environ.get("DAG_ORACLE_REPORT")
    if path and failures:
        Path(path).write_text(json.dumps(failures, indent=1, sort_keys=True) + "\n")


def test_dag_fuzz_differential(fuzz_rounds):
    """Exact match on small DAGs, never worse than duplication on any."""
    failures = []
    exact_seen = large_seen = 0
    for i in range(fuzz_rounds):
        seed = DAG_FUZZ_SEED_BASE + i
        result = check_dag_seed(seed)
        if result.exact:
            exact_seen += 1
        else:
            large_seen += 1
        if result.mismatches:
            failures.append(
                {
                    "seed": seed,
                    "nodes": result.nodes,
                    "edges": result.edges,
                    "n": result.n,
                    "exact": result.exact,
                    "partition_makespan": result.partition_makespan,
                    "duplication_makespan": result.duplication_makespan,
                    "oracle_makespan": result.oracle_makespan,
                    "mismatches": list(result.mismatches),
                }
            )
    _write_dag_report(failures)
    assert not failures, f"{len(failures)}/{fuzz_rounds} DAG instances diverged"
    # the seed recipe spans both regimes: oracle-checked and bound-checked
    assert exact_seen > 0
    if fuzz_rounds >= 20:
        assert large_seen > 0


def test_dag_committed_corpus_is_exact():
    corpus = load_dag_corpus()
    assert len(corpus) >= 24
    witnesses = 0
    for entry in corpus:
        result = check_dag_seed(entry["seed"])
        assert result.mismatches == ()
        assert result.exact  # corpus commits only oracle-checked instances
        assert result.nodes == entry["nodes"]
        assert result.edges == entry["edges"]
        assert result.n == entry["n"]
        # dyadic grid: every float sum is exact, so replay is bit-exact
        assert result.partition_makespan == entry["makespan"]
        assert result.oracle_makespan == entry["makespan"]
        assert result.duplication_makespan == entry["duplication_makespan"]
        assert result.improvement == entry["improvement"]
        if entry["branch"] and entry["improvement"] > 0.0:
            witnesses += 1
    # acceptance witness: true cut pricing strictly beats path duplication
    # on at least one committed instance with a shared (fan-out) tensor
    assert witnesses >= 1


def test_dag_instance_expansion_is_deterministic_and_bounded():
    a = dag_instance_from_seed(77)
    b = dag_instance_from_seed(77)
    assert sorted(a.dag.node_ids) == sorted(b.dag.node_ids)
    assert a.node_time == b.node_time
    assert a.seconds_per_byte == b.seconds_per_byte
    assert a.n == b.n
    assert MIN_DAG_NODES <= len(a.dag) <= MAX_DAG_NODES
    assert 2 <= a.n <= MAX_DAG_JOBS
    source = a.dag.topological_order()[0]
    assert a.node_time[source] == 0.0


def test_dag_oracle_hand_computed_diamond():
    """Fan-out diamond: the true cut ships the shared tensor once.

    a fans out to b and c (same 100-byte tensor); mobile set {a} prices
    g = max(100, 100) * spb, while the Fig.-9 duplication transform puts
    the a->b and a->c copies on separate paths and ships 200 bytes.
    """
    from repro.dag.graph import Dag
    from repro.dag.partition import duplication_schedule, partition_dag

    dag = Dag(name="diamond")
    for v in "abcd":
        dag.add_node(v)
    dag.add_edge("a", "b", volume=100.0)
    dag.add_edge("a", "c", volume=100.0)
    dag.add_edge("b", "d", volume=10.0)
    dag.add_edge("c", "d", volume=10.0)
    times = {"a": 1.0, "b": 4.0, "c": 4.0, "d": 4.0}
    upload = lambda b: b * 0.005  # noqa: E731

    oracle = dag_exhaustive_optimal(dag, times, upload, 2)
    schedule = partition_dag(dag, times.__getitem__, upload, 2)
    baseline = duplication_schedule(dag, times.__getitem__, upload, 2)
    assert schedule.makespan == pytest.approx(oracle.makespan)
    # strict improvement: duplication re-ships a's tensor on both paths
    assert schedule.makespan < baseline.makespan - DAG_TOLERANCE
    assert baseline.metadata["over_shipped_bytes"] > 0


def test_dag_check_flags_large_instances_as_bounded_only():
    instance = dag_instance_from_seed(2_500_001)
    result = check_dag_instance(instance, exact_limit=3)
    assert not result.exact
    assert result.oracle_makespan is None
    assert result.ok
    assert result.partition_makespan <= result.duplication_makespan + DAG_TOLERANCE


def test_dag_exact_limit_matches_harness_default():
    assert DAG_EXACT_LIMIT == 10
