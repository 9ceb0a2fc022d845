"""Instance generation + corpus management for the differential oracles.

One seed deterministically expands to one small planning instance,
which a brute-force planner cross-examines. Two instance families:

* **line** — ``n`` jobs over a random dyadic-grid cost table, checked
  by :func:`repro.faults.oracle.check_instance`;
* **dag** — ``n`` jobs over a random dyadic-grid DAG, checked by
  :func:`repro.dag.oracle.check_dag_instance` (partitioner vs the
  ``2^m``-assignment oracle vs the Fig.-9 duplication baseline).

Two consumers each:

* ``tests/test_oracle_differential.py`` fuzzes ``--fuzz-rounds`` fresh
  seeds per run and replays the committed corpora exactly;
* ``python -m tests.oracles.harness [count]`` regenerates
  ``tests/data/oracle_corpus.json`` and
  ``python -m tests.oracles.harness dag [count]`` regenerates
  ``tests/data/dag_oracle_corpus.json`` — scanning seeds for instances
  where the planner *equals* the exhaustive optimum, so the committed
  corpora assert exact agreement, not just no-worse-than.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.dag.graph import Dag
from repro.dag.oracle import (
    DagInstance,
    DagInstanceCheck,
    _closed_masks,
    check_dag_instance,
    random_dag,
)
from repro.faults.oracle import InstanceCheck, check_instance, random_line_table
from repro.profiling.latency import CostTable
from repro.utils.rng import make_rng

#: Instance bounds: small enough that the factorial oracle is fast,
#: large enough to exercise multi-job Johnson interleavings.
MAX_JOBS = 6
MAX_POSITIONS = 8

#: DAG instance bounds. Fuzz instances up to 14 nodes; the bitmask
#: oracle only runs on <= DAG_EXACT_LIMIT nodes (larger instances are
#: still checked against the duplication baseline and plan validity).
MIN_DAG_NODES = 4
MAX_DAG_NODES = 14
MAX_DAG_JOBS = 4
DAG_EXACT_LIMIT = 10

_DATA_DIR = Path(__file__).resolve().parent.parent / "data"
CORPUS_PATH = _DATA_DIR / "oracle_corpus.json"
DAG_CORPUS_PATH = _DATA_DIR / "dag_oracle_corpus.json"


def instance_from_seed(seed: int) -> tuple[CostTable, int]:
    """Deterministically expand one seed into ``(table, n)``."""
    rng = make_rng(seed)
    k = int(rng.integers(2, MAX_POSITIONS + 1))
    n = int(rng.integers(2, MAX_JOBS + 1))
    return random_line_table(rng, k), n


def check_seed(seed: int) -> InstanceCheck:
    table, n = instance_from_seed(seed)
    return check_instance(table, n)


def load_corpus() -> list[dict]:
    return json.loads(CORPUS_PATH.read_text())


def build_corpus(count: int = 24, start_seed: int = 0) -> list[dict]:
    """Scan seeds from ``start_seed`` for gap-0 instances.

    Only instances where JPS matches the exhaustive optimum exactly are
    committed, so the corpus test can assert float-equality; the fuzz
    test covers the gap>0 tail separately.
    """
    corpus: list[dict] = []
    seed = start_seed
    while len(corpus) < count:
        result = check_seed(seed)
        if result.mismatches:
            raise AssertionError(
                f"seed {seed} found a real divergence while building the "
                f"corpus: {result.mismatches}"
            )
        if result.gap == 0.0:
            corpus.append(
                {
                    "seed": seed,
                    "n": result.n,
                    "k": result.k,
                    "makespan": result.jps_makespan,
                }
            )
        seed += 1
    return corpus


def dag_instance_from_seed(seed: int) -> DagInstance:
    """Deterministically expand one seed into a dyadic-grid DAG instance.

    Node times are multiples of 1/1024 (the source pinned to 0, like the
    line tables' input pseudo-layer), edge volumes integer bytes, and
    the channel a power-of-two seconds-per-byte — every downstream float
    sum is exact, so corpus replay can compare makespans with ``==``.
    """
    rng = make_rng(seed)
    num_nodes = int(rng.integers(MIN_DAG_NODES, MAX_DAG_NODES + 1))
    n = int(rng.integers(2, MAX_DAG_JOBS + 1))
    seconds_per_byte = 2.0 ** -int(rng.integers(10, 15))
    dag = random_dag(rng, num_nodes, name=f"oracle-dag-{seed}")
    order = dag.topological_order()
    node_time = {order[0]: 0.0}
    for v in order[1:]:
        node_time[v] = int(rng.integers(0, 257)) / 1024.0
    return DagInstance(
        dag=dag, node_time=node_time, seconds_per_byte=seconds_per_byte, n=n
    )


def check_dag_seed(seed: int) -> DagInstanceCheck:
    return check_dag_instance(dag_instance_from_seed(seed), exact_limit=DAG_EXACT_LIMIT)


def oracle_pareto_front(dag: Dag, node_time) -> list[tuple[list[str], str]]:
    """The (compute, bytes) Pareto cuts of the oracle's bitmask enumeration.

    Every set of :func:`repro.dag.oracle._closed_masks` is priced by its
    own loops in topological order (each crossing tail's largest volume
    counted once); ties go as in ``prune_dominated``: compute, bytes,
    then sorted node ids. Returns ``(sorted mobile set, float.hex(bytes))``
    per cut, in increasing compute.
    """
    order, masks = _closed_masks(dag)
    priced = []
    for mask in masks:
        mobile = [v for i, v in enumerate(order) if mask >> i & 1]
        inside = set(mobile)
        compute = shipped = 0.0
        for v in mobile:
            compute += node_time(v)
            crossing = [dag.volume(v, w) for w in dag.successors(v) if w not in inside]
            if crossing:
                shipped += max(crossing)
        priced.append((compute, shipped, sorted(mobile)))
    priced.sort()
    front, fewest = [], float("inf")
    for _, shipped, mobile in priced:
        if shipped < fewest:
            front.append((mobile, shipped.hex()))
            fewest = shipped
    return front


def load_dag_corpus() -> list[dict]:
    return json.loads(DAG_CORPUS_PATH.read_text())


def _has_branch(instance: DagInstance) -> bool:
    """Does any node fan out (a shared tensor duplication would re-ship)?"""
    return any(instance.dag.out_degree(v) >= 2 for v in instance.dag.node_ids)


def build_dag_corpus(count: int = 24, start_seed: int = 0) -> list[dict]:
    """Scan seeds for exact-oracle DAG instances.

    Only instances small enough for the bitmask oracle are committed, so
    the corpus test asserts float-equality against the exhaustive
    optimum; the fuzz test covers the larger duplication-bounded tail.
    The scan keeps going until at least one committed instance has a
    branch node *and* strictly beats the Fig.-9 duplication baseline —
    the acceptance witness that true cut pricing buys something real.
    """
    corpus: list[dict] = []
    seed = start_seed
    have_witness = False
    while len(corpus) < count or not have_witness:
        result = check_dag_seed(seed)
        if result.mismatches:
            raise AssertionError(
                f"seed {seed} found a real divergence while building the "
                f"DAG corpus: {result.mismatches}"
            )
        if result.exact:
            witness = result.improvement > 0.0 and _has_branch(
                dag_instance_from_seed(seed)
            )
            if len(corpus) < count or witness:
                corpus.append(
                    {
                        "seed": seed,
                        "nodes": result.nodes,
                        "edges": result.edges,
                        "n": result.n,
                        "makespan": result.partition_makespan,
                        "duplication_makespan": result.duplication_makespan,
                        "improvement": result.improvement,
                        "branch": _has_branch(dag_instance_from_seed(seed)),
                    }
                )
                have_witness = have_witness or witness
        seed += 1
    return corpus


def main(argv: list[str]) -> int:
    if len(argv) > 1 and argv[1] == "dag":
        count = int(argv[2]) if len(argv) > 2 else 24
        corpus = build_dag_corpus(count)
        DAG_CORPUS_PATH.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
        witnesses = sum(1 for e in corpus if e["improvement"] > 0.0 and e["branch"])
        print(
            f"{len(corpus)} exact DAG instances "
            f"({witnesses} strict-improvement witnesses) -> {DAG_CORPUS_PATH}"
        )
        return 0
    count = int(argv[1]) if len(argv) > 1 else 24
    corpus = build_corpus(count)
    CORPUS_PATH.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"{len(corpus)} gap-0 instances -> {CORPUS_PATH}")
    return 0


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    sys.exit(main(sys.argv))
