"""Line-structure DNN partition (paper §5.1–5.2).

Given a cost table with increasing ``f`` and non-increasing ``g``,
the discrete analogue of Theorem 5.2's crossing point is the *leftmost*
position ``l*`` with ``f(l*) >= g(l*)`` — found by Alg. 2's binary
search in ``O(log k)``. Theorem 5.3 then says it suffices to cut every
job at ``l* - 1`` or ``l*``; the count ratio between the two types is
the paper's line-9 formula::

    ratio = floor( (f(l*) - g(l*)) / (g(l*-1) - f(l*-1)) )

i.e. each job cut at ``l*`` leaves ``f - g`` seconds of un-overlapped
computation, which ``ratio`` communication-heavy jobs (surplus
``g - f`` each) can hide behind.

Beyond the paper's rule we expose an *exact* integer split optimizer
(same two candidate layers, best ``n1`` by direct makespan evaluation);
it is the default JPS split. A split's makespan is a critical path that
is convex in ``n1``, so only the few candidates near its minimum that
can decide the choice are priced, as rows of one stage matrix. The
scalar sweep over all ``n + 1`` candidates is kept as the test oracle
:func:`repro.faults.oracle.split_exact_scalar`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.plans import JobPlan, RunLengthJobs
from repro.core.scheduling import flow_shop_makespan, johnson_order, johnson_order_indices
from repro.profiling.latency import CostTable
from repro.utils.validation import require_integer, require_positive

__all__ = [
    "binary_search_cut",
    "searchsorted_cut",
    "linear_scan_cut",
    "partition_ratio",
    "TwoTypeSplit",
    "split_by_paper_ratio",
    "split_exact",
    "two_type_makespans",
    "cut_plan",
    "split_jobs",
    "plans_for_split",
    "split_best_pair",
    "optimal_multiset",
    "optimal_multisets",
    "lower_hull",
]


def binary_search_cut(table: CostTable) -> int:
    """Alg. 2: leftmost position with ``f >= g`` via binary search.

    Requires ``g`` non-increasing (run virtual-block clustering first);
    ``f`` is non-decreasing by construction. A full table crosses at the
    latest at its final position, whose ``g`` is 0: a network that never
    crosses earlier is simply best run fully locally. A table without
    that endpoint may not cross at all (a memory budget drops it, see
    :func:`repro.extensions.memory.restrict_table`); the result is then
    the final position, the one with the smallest ``g``.
    """
    if not table.is_g_non_increasing():
        raise ValueError(
            f"{table.model_name}: g is not non-increasing; cluster virtual "
            "blocks before searching (binary search needs a single crossing)"
        )
    lo, hi = 0, table.k - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if table.f[mid] < table.g[mid]:
            lo = mid + 1
        else:
            hi = mid
    return lo


def searchsorted_cut(table: CostTable) -> int:
    """Alg. 2's crossing as one ``np.searchsorted`` over ``h = f - g``.

    With ``f`` non-decreasing (a CostTable invariant) and ``g``
    non-increasing, ``h`` is non-decreasing and the leftmost position
    with ``f >= g`` is the leftmost with ``h >= 0``. Float subtraction
    is sign-exact (``sign(fl(f - g)) == sign(f - g)``), so the crossing
    index matches :func:`binary_search_cut` exactly, including its
    answer for a table that never crosses: the final position.
    """
    if not table.is_g_non_increasing():
        raise ValueError(
            f"{table.model_name}: g is not non-increasing; cluster virtual "
            "blocks before searching (binary search needs a single crossing)"
        )
    return min(
        int(np.searchsorted(table.f - table.g, 0.0, side="left")), table.k - 1
    )


def linear_scan_cut(table: CostTable) -> int:
    """O(k) reference implementation of the same search (test oracle)."""
    for position in range(table.k):
        if table.f[position] >= table.g[position]:
            return position
    return table.k - 1


def partition_ratio(table: CostTable, l_star: int) -> int:
    """The paper's line-9 ratio: (l*-1)-cuts per one l*-cut.

    Defined for ``l_star >= 1`` with a strict crossing
    (``f(l*-1) < g(l*-1)``). A zero ratio means the computation surplus
    at ``l*`` is smaller than one job's communication surplus at
    ``l* - 1`` — the split optimizer still considers mixing, but the
    paper's floor rounds to "no communication-heavy jobs needed".
    """
    if l_star <= 0:
        raise ValueError("ratio is undefined when the crossing is at position 0")
    surplus_compute = float(table.f[l_star] - table.g[l_star])
    surplus_comm = float(table.g[l_star - 1] - table.f[l_star - 1])
    if surplus_comm <= 0:
        raise ValueError(
            f"position {l_star - 1} is not communication-heavy "
            f"(f={table.f[l_star - 1]}, g={table.g[l_star - 1]})"
        )
    return int(np.floor(surplus_compute / surplus_comm))


@dataclass(frozen=True)
class TwoTypeSplit:
    """A job-count split over the two candidate cut layers."""

    position_a: int       # l* - 1 (communication-heavy), or l* when n_a == 0
    position_b: int       # l* (computation-heavy)
    n_a: int
    n_b: int
    makespan: float

    def __post_init__(self) -> None:
        if self.n_a < 0 or self.n_b < 0:
            raise ValueError("job counts must be >= 0")

    @property
    def total_jobs(self) -> int:
        return self.n_a + self.n_b


def _split_makespan(table: CostTable, l_star: int, n_a: int, n_b: int) -> float:
    """Exact makespan of ``n_a`` jobs at l*-1 and ``n_b`` at l* (Johnson order)."""
    stages = [table.stage_lengths(l_star - 1)] * n_a + [table.stage_lengths(l_star)] * n_b
    order = johnson_order(stages)
    return flow_shop_makespan([stages[i] for i in order])


def split_by_paper_ratio(table: CostTable, l_star: int, n: int) -> TwoTypeSplit:
    """Distribute ``n`` jobs across (l*-1, l*) by the paper's ratio rule.

    With ratio ``rho = n_a : n_b`` per computation-heavy job, ``n`` jobs
    take ``n_a = round(n * rho / (rho + 1))``. A crossing at position 0
    (``f(0) >= g(0)``, e.g. extremely fast networks) or an exact tie
    ``f(l*) == g(l*)`` puts every job on a single layer, matching the
    Theorem 5.2 regime. So does a table that never crosses
    (``f(l*) < g(l*)`` at its final position ``l*``): there ``g``
    bounds every stage and ``l*`` has the smallest.
    """
    n = require_positive(require_integer(n, "n"), "n")
    if (
        l_star == 0
        or np.isclose(table.f[l_star], table.g[l_star])
        or table.f[l_star] < table.g[l_star]
    ):
        # exact crossing (Theorem 5.2 regime), crossing at the first
        # position or no crossing: a single cut layer serves every job
        makespan = flow_shop_makespan([table.stage_lengths(l_star)] * n)
        return TwoTypeSplit(
            position_a=l_star, position_b=l_star, n_a=0, n_b=n, makespan=makespan
        )
    rho = partition_ratio(table, l_star)
    n_a = int(round(n * rho / (rho + 1)))
    n_a = min(max(n_a, 0), n)
    n_b = n - n_a
    return TwoTypeSplit(
        position_a=l_star - 1,
        position_b=l_star,
        n_a=n_a,
        n_b=n_b,
        makespan=_split_makespan(table, l_star, n_a, n_b),
    )


#: Candidate rows per numpy pass of :func:`split_exact`: bounds the stage
#: matrix to ``256 x n`` cells (~2 MB per thousand jobs per temporary)
#: however large ``n`` grows.
_SPLIT_ROWS = 256

#: Widest scan window :func:`split_exact` grows before it prices every
#: row instead: arms too flat for rounding to tell their rows apart.
_WINDOW_ROWS = 16

_EPS = float(np.finfo(float).eps)


def two_type_makespans(
    stage_a: tuple[float, float],
    stage_b: tuple[float, float],
    n: int,
    start: int = 0,
    stop: int | None = None,
) -> np.ndarray:
    """Johnson makespans of the candidate splits ``start..stop-1``, one matrix pass.

    Entry ``i`` is the exact makespan of ``start + i`` jobs at
    ``stage_a`` followed by the rest of the ``n`` at ``stage_b`` (every
    split ``0..n`` by default) — the order Johnson's rule produces
    when ``stage_a`` is strictly communication-heavy (``f_a < g_a``) and
    ``stage_b`` computation-heavy (``f_b >= g_b``), as the (l*-1, l*)
    candidates of Theorem 5.3 always are. Each row of the stage matrix
    goes through the same cumsum closed form as
    :func:`~repro.core.scheduling.flow_shop_completion_arrays`; only the
    last job's completion is needed, and the last entry of its
    ``maximum.accumulate`` is the row maximum, which a max reduction
    gives without rounding. So every entry is bit-identical to
    evaluating that candidate on its own, and rows are independent of
    the block they are priced in.
    """
    n = require_positive(require_integer(n, "n"), "n")
    stop = n + 1 if stop is None else stop
    if not 0 <= start < stop <= n + 1:
        raise ValueError(f"candidate rows must satisfy 0 <= start < stop <= {n + 1}")
    f_a, g_a = stage_a
    f_b, g_b = stage_b
    in_a = np.arange(n)[None, :] < np.arange(start, stop)[:, None]
    c1 = np.cumsum(np.where(in_a, f_a, f_b), axis=1)
    gcum = np.cumsum(np.where(in_a, g_a, g_b), axis=1)
    c1[:, 1:] -= gcum[:, :-1]  # C1[k] - Gcum[k-1], with Gcum[-1] = 0
    return gcum[:, -1] + c1.max(axis=1)


def _scan_window(
    stage_a: tuple[float, float], stage_b: tuple[float, float], n: int
) -> tuple[int, int]:
    """The splits ``[lo, hi)`` on which :func:`split_exact`'s scan decides.

    For ``1 <= i <= n - 1`` the makespan of ``i`` jobs at ``stage_a``
    then ``n - i`` at ``stage_b`` is the critical path
    ``max_j (sum_{k<=j} f_k + sum_{k>=j} g_k)``, and ``j`` in
    ``{1, i, i + 1, n}`` attains it (each stage type's terms are linear
    in ``j``): a maximum of lines in ``i``, so convex. Splits 0 and
    ``n`` keep only some of those terms and lie off that piece.

    The window starts at the minimizer of the lines and grows until
    (A) every split before ``lo`` is worse than split ``lo`` by more
    than ``2 * err + 1e-15`` and (B) every split from ``hi`` on is at
    least the window's best plus ``2 * err``. Each is checked on the
    neighbouring split, convexity covering the others on the piece,
    and on splits 0 and ``n`` directly. ``err`` bounds the rounding of
    the kernel's rows and of these critical paths together, with room
    to spare for the comparisons' own rounding (the form of
    :func:`repro.dag.cuts._dominance_gap`). Under (A) the scan takes
    split ``lo`` whatever it held before, and under (B) nothing after
    the window beats what it holds, so scanning the window picks what
    scanning every split picks.

    Every split ``(0, n + 1)`` comes back when fewer than four are in
    play, when a sum is not finite, or when the window would outgrow
    ``_WINDOW_ROWS``.
    """
    every = 0, n + 1
    f_a, g_a = stage_a
    f_b, g_b = stage_b
    if n < 3 or not math.isfinite(2 * n * (f_a + g_a + f_b + g_b)):
        return every
    err = 4 * (n + 2) * _EPS * n * (max(f_a, f_b) + max(g_a, g_b))
    # the critical paths through j = 1, j in {i, i + 1} and j = n, as lines c + s * i
    c0, s0 = f_a + n * g_b, g_a - g_b
    c1, s1 = max(g_a, f_b) + n * g_b, f_a - g_b
    c2, s2 = n * f_b + g_b, f_a - f_b

    def path(i: int) -> float:
        """Split ``i``'s critical path, ``1 <= i <= n - 1``."""
        return max(c0 + s0 * i, c1 + s1 * i, c2 + s2 * i)

    # the lines' maximum is least where the highest falling line meets the rising ones
    lines = ((c0, s0), (c1, s1), (c2, s2))
    x = 1.0
    for c_d, s_d in lines:
        if s_d < 0:
            meet = n - 1
            for c_u, s_u in lines:
                if s_u >= 0:
                    meet = min(meet, (c_u - c_d) / (s_d - s_u))
            x = max(x, meet)
    start = int(min(x, n - 2))
    lo = min(start, start + 1, key=path)
    hi = lo + 1
    first = max(f_b + n * g_b, n * f_b + g_b)  # split 0: every job at stage_b
    last = max(f_a + n * g_a, n * f_a + g_a)  # split n: every job at stage_a

    at_lo = best = path(lo)  # best: the window's least critical path on the convex piece
    while lo > 0:  # (A)
        bar = at_lo + 2 * err + 1e-15
        before = first if lo == 1 else path(lo - 1)
        if before > bar and first > bar:
            break
        lo, at_lo = lo - 1, before
        if lo:
            best = min(best, before)
        if hi - lo > _WINDOW_ROWS:
            return every
    while hi <= n:  # (B)
        after = last if hi == n else path(hi)
        bar = best + 2 * err
        if after >= bar and last >= bar:
            break
        if hi < n:
            best = min(best, after)
        hi += 1
        if hi - lo > _WINDOW_ROWS:
            return every
    return lo, hi


def split_exact(table: CostTable, l_star: int, n: int) -> TwoTypeSplit:
    """Best integer split over the two candidate layers (l*-1, l*).

    Scans the values of ``n_a`` in order and keeps the first that beats
    the best so far by more than ``1e-15``. Only the splits of
    :func:`_scan_window` are priced, with :func:`two_type_makespans`,
    ``_SPLIT_ROWS`` per pass: the few around the minimum of the convex
    makespan, or every ``n + 1`` where rounding cannot tell the rows
    apart. The choice and its makespan are bit-identical to the scan of
    every split, :func:`repro.faults.oracle.split_exact_scalar`. The
    ratio rule is a closed-form approximation of this.
    """
    n = require_positive(require_integer(n, "n"), "n")
    if l_star == 0:
        makespan = flow_shop_makespan([table.stage_lengths(0)] * n)
        return TwoTypeSplit(0, 0, 0, n, makespan)
    stage_a, stage_b = table.stage_lengths(l_star - 1), table.stage_lengths(l_star)
    lo, hi = _scan_window(stage_a, stage_b, n)
    best = lo
    for start in range(lo, hi, _SPLIT_ROWS):
        stop = min(start + _SPLIT_ROWS, hi)
        makespans = two_type_makespans(stage_a, stage_b, n, start, stop).tolist()
        if start == lo:
            best_makespan = makespans[0]
        for n_a, makespan in enumerate(makespans, start):
            if makespan < best_makespan - 1e-15:
                best, best_makespan = n_a, makespan
    return TwoTypeSplit(l_star - 1, l_star, best, n - best, best_makespan)


def _best_pair(table: CostTable, n: int, candidates: Sequence[int]) -> TwoTypeSplit:
    """:func:`split_best_pair` over the positions ``candidates`` (ascending)."""
    n = require_positive(require_integer(n, "n"), "n")
    # candidates in scan order: for each b, all n at b, then for each a < b
    # the splits n_a = 1..n-1 of a with b, in the order Johnson runs them
    segments: list[tuple[int, int]] = []
    makespans: list[np.ndarray] = []
    for j, b in enumerate(candidates):
        stage_b = table.stage_lengths(b)
        segments.append((b, b))
        makespans.append(two_type_makespans(stage_b, stage_b, n, 0, 1))
        if n == 1:
            continue
        for a in candidates[:j]:
            stage_a = table.stage_lengths(a)
            segments.append((a, b))
            a_first = johnson_order([stage_a, stage_b]) == [0, 1]
            first, second = (stage_a, stage_b) if a_first else (stage_b, stage_a)
            rows = np.concatenate(
                [
                    two_type_makespans(first, second, n, start, min(start + _SPLIT_ROWS, n))
                    for start in range(1, n, _SPLIT_ROWS)
                ]
            )
            # row i runs i + 1 jobs at ``first``: n_a = i + 1, or n - 1 - i
            makespans.append(rows if a_first else rows[::-1])
    values = np.concatenate(makespans)
    # keep the first candidate that beats the best so far by more than 1e-15
    best = 0
    while True:
        better = np.flatnonzero(values[best + 1 :] < values[best] - 1e-15)
        if better.size == 0:
            break
        best += 1 + int(better[0])
    ends = np.cumsum([len(m) for m in makespans])
    segment = int(np.searchsorted(ends, best, side="right"))
    a, b = segments[segment]
    n_a = 0 if a == b else best - int(ends[segment - 1]) + 1
    return TwoTypeSplit(a, b, n_a, n - n_a, float(values[best]))


def split_best_pair(table: CostTable, n: int) -> TwoTypeSplit:
    """Best two-type split over *all* position pairs (beyond the paper).

    Theorem 5.3 restricts the two cut types to the adjacent pair
    (l*-1, l*), which is only guaranteed sufficient when adjacent-layer
    time differences are not drastic. On coarse clustered tables (e.g.
    VGG-16, whose first block holds most of the computation) the optimal
    mixture pairs non-adjacent layers. Because the fractional LP bound
    has at most two non-zero weights, searching all O(k^2) pairs with an
    exact integer split recovers the best two-type solution outright.

    Every candidate is priced as a :func:`two_type_makespans` row — each
    pair's ``n - 1`` mixed splits in one matrix pass, its jobs in the
    order Johnson's rule runs them — and the scan keeps the first
    candidate that beats the best so far by more than ``1e-15``, in the
    order of the scalar sweep it replaced
    (:func:`repro.faults.oracle.split_best_pair_scalar`), so the result
    is bit-identical to it. It is also the incumbent that bounds
    :func:`optimal_multiset`.
    """
    return _best_pair(table, n, range(table.k))


#: Relative slack on the multiset scheduler's pruning: a state is dropped
#: only when its lower bound exceeds the best known makespan by more than
#: this fraction, far more than the few ulps by which the bound's sums, the
#: incumbent's closed form and the recurrence can round apart.
_BOUND_SLACK = 1e-9


def lower_hull(
    points: Iterable[tuple[float, float]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lower-left convex hull of the ``(f, g)`` points.

    Returns the hull's vertices, ``f`` ascending and ``g`` descending,
    and the weights ``mu`` at which the cheapest vertex of
    ``mu * f + (1 - mu) * g`` changes, between 0 and 1: the breakpoints
    of the support function ``cheapest(mu) = min_i (mu * f_i + (1 - mu)
    * g_i)``. Any mixture of the points costs at least ``cheapest(mu)``
    per unit of mixture at every weight, and by LP duality the least
    ``max(f, g)`` of a mixture is ``max_mu cheapest(mu)``: the point
    where the hull crosses ``f = g``.
    """
    hull: list[tuple[float, float]] = []
    for x, y in sorted(points):
        if hull and y >= hull[-1][1]:
            continue  # no less upload for at least as much compute
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0) > 0:
                break
            hull.pop()
        hull.append((x, y))
    breaks = [(y0 - y1) / (y0 - y1 + x1 - x0) for (x0, y0), (x1, y1) in zip(hull, hull[1:])]
    hull_f, hull_g = (np.array(column) for column in zip(*hull))
    return hull_f, hull_g, np.array([0.0, *breaks, 1.0])


@dataclass(frozen=True)
class _Remaining:
    """What the pairs of one Johnson-rank suffix can still add.

    At each weight ``mu`` in ``weights`` — 0, 1 and every breakpoint of
    a group's :func:`lower_hull` over its pairs in the suffix — row ``m``
    of ``cheapest`` holds group ``m``'s least ``mu * f + (1 - mu) * g``
    over those pairs (0 for a group with none left). Each row is concave
    and piecewise linear in ``mu``, with its kinks among ``weights``.
    """

    weights: np.ndarray
    cheapest: np.ndarray
    f_min: float
    g_min: float

    @classmethod
    def of(cls, points: Sequence[list[tuple[float, float]]]) -> "_Remaining":
        """From each group's ``(f, g)`` points: its pairs in the suffix."""
        hulls = {m: lower_hull(group) for m, group in enumerate(points) if group}
        if len(hulls) == 1:
            ((_, _, weights),) = hulls.values()
        else:  # every kink of the groups' sum is one group's
            weights = np.unique(np.concatenate([w for _, _, w in hulls.values()]))
        cheapest = np.zeros((len(points), weights.size))
        for m, (hull_f, hull_g, _) in hulls.items():
            cheapest[m] = (np.outer(weights, hull_f) + np.outer(1 - weights, hull_g)).min(axis=1)
        # a hull's first vertex has the least f of its points, its last the least g
        f_min = min(float(hull_f[0]) for hull_f, _, _ in hulls.values())
        g_min = min(float(hull_g[-1]) for _, hull_g, _ in hulls.values())
        return cls(weights, cheapest, f_min, g_min)

    def load(self, left: np.ndarray, skip: int = -1) -> np.ndarray | None:
        """Per state and weight, ``sum_m left[m] * cheapest[m]`` over the
        groups other than ``skip`` (None when there is no other group)."""
        total = None
        for m, (left_m, cheapest_m) in enumerate(zip(left, self.cheapest)):
            if m != skip:
                term = left_m[:, None] * cheapest_m
                total = term if total is None else total + term
        return total

    def bound(self, c1: np.ndarray, c2: np.ndarray, load: np.ndarray) -> np.ndarray:
        """Lower bounds on every completion of the states ``(c1, c2)``.

        With jobs still to place on these pairs, at stage sums ``(F,
        G)``, the last upload ends no earlier than ``a + F`` with ``a =
        c1 + g_min``, and the uploads, which cannot start before ``b =
        max(c2, c1 + f_min)``, take ``G``. For any weight ``mu`` the
        makespan is thus at least ``mu * (a + F) + (1 - mu) * (b + G) >=
        mu * a + (1 - mu) * b + load(mu)``, where ``load`` (:meth:`load`)
        prices each group's jobs left at its cheapest pair. The right
        side is concave in ``mu``, so its maximum over ``[0, 1]`` — the
        fractional optimum of ``max(a + F, b + G)`` — is at one of the
        ``weights``, and that maximum is the bound.
        """
        b = np.maximum(c2, c1 + self.f_min)
        bound = (c1 + self.g_min - b)[:, None] * self.weights + b[:, None]
        bound += load
        return bound.max(axis=1)


def _pareto_states(
    keys: np.ndarray, c1: np.ndarray, c2: np.ndarray, full: int
) -> np.ndarray:
    """Indices, ascending, of the states no other state with the same key
    beats on both ``c1`` and ``c2``; among equal states the first survives."""
    order = np.lexsort((c2, c1, keys))
    c2 = c2[order]
    by_c2 = np.argsort(c2)
    ascending = c2[by_c2]
    # exact ranks of c2 (equal values share one), offset per key so that
    # an earlier (smaller) key never sets the running minimum of a later one
    rank = np.empty(order.size, dtype=np.int64)
    rank[by_c2] = np.cumsum(np.concatenate(([0], ascending[1:] != ascending[:-1])))
    key = rank + (full - keys[order]) * order.size
    keep = np.ones(order.size, dtype=bool)
    keep[1:] = key[1:] < np.minimum.accumulate(key)[:-1]
    return np.sort(order[keep])


def optimal_multisets(
    groups: Sequence[tuple[CostTable, int, Sequence[int]]],
) -> tuple[float, tuple[tuple[int, int], ...]]:
    """The exact optimum of a mixed job set: one ``(table, count,
    positions)`` group per model.

    Every group's jobs take a multiset of its table's candidate
    ``positions`` (ascending), and all of them share one two-stage flow
    shop. Johnson's rule is
    makespan-optimal for a fixed job set, and the jobs of one (group,
    position) pair share a stage pair, so the pairs of every group run
    in one joint Johnson rank (equal keys in group, then position,
    order), each pair's jobs back to back. A dynamic program over the
    pairs in that rank picks a job count per pair; its state is the
    count vector of jobs placed per group and the flow-shop pair ``(C1,
    C2)`` of the recurrence::

        C1 += f;  C2 = max(C2, C1) + g

    stepped once per job, in the order the recurrence runs them, so every
    state holds exactly the floats of the multisets it stands for. Both
    steps are monotone in ``(C1, C2)``, even in floating point, so only
    the Pareto-minimal pairs per count vector are kept; there are up to
    ``prod_m (n_m + 1)`` count vectors, so the states, and the time,
    grow with that product. A state is dropped when it still has jobs
    of a group past that group's last pair, or when its lower bound
    (:meth:`_Remaining.bound`) exceeds the best known makespan by more
    than ``_BOUND_SLACK``; that makespan starts at the groups' best
    two-type splits run back to back (:func:`split_best_pair`), and
    falls to any completed state's. Among equal states, and among equal
    optima, the one with the most jobs at the earliest-ranked pair wins,
    then the next.

    Returns the makespan and the ``(group, position)`` of every job, in
    execution (Johnson) order.
    """
    sizes, pairs, stages = [], [], []
    for m, (table, n, positions) in enumerate(groups):
        sizes.append(require_positive(require_integer(n, "n"), "n"))
        pairs += [(m, p) for p in positions]
        stages += [table.stage_lengths(p) for p in positions]
    if not pairs:
        raise ValueError("no candidate positions to search")
    rank = johnson_order_indices(*np.array(stages).T)
    pairs, stages = [pairs[i] for i in rank], [stages[i] for i in rank]
    # per rank, what its suffix can add and the groups whose last pair it is
    suffix: list[list[tuple[float, float]]] = [[] for _ in groups]
    remaining, closing = [], []
    for (m, _), stage in zip(reversed(pairs), reversed(stages)):
        closing.append([] if suffix[m] else [m])
        suffix[m].append(stage)
        remaining.append(_Remaining.of(suffix))
    remaining.reverse()
    closing.reverse()
    # a state's key is its count vector of jobs left, in mixed radix
    radix = np.cumprod([1] + [n + 1 for n in sizes[:-1]])
    full = int(radix[-1]) * (sizes[-1] + 1) - 1
    # running the groups back to back is a schedule: the sum of their
    # best pair splits bounds the optimum
    back_to_back = sum(
        _best_pair(table, n, positions).makespan
        for (table, _, positions), n in zip(groups, sizes)
    )
    limit = back_to_back * (1 + _BOUND_SLACK)

    # the surviving states, in preference order — their jobs left per
    # group (rows) and (C1, C2) — and per rank how each was reached: its
    # parent among the previous rank's states, its count
    left, c1, c2 = np.array(sizes)[:, None], np.zeros(1), np.zeros(1)
    steps: list[tuple[np.ndarray, np.ndarray]] = []
    for r, ((m, _), (f_r, g_r)) in enumerate(zip(pairs, stages)):
        bounds = remaining[r]
        cheapest, others = bounds.cheapest[m], bounds.load(left, skip=m)
        states = np.arange(c1.size)
        grown = [(states, np.zeros(c1.size, dtype=np.int64), c1, c2)]
        live, rest, a, b = states, left[m], c1, c2
        for count in range(1, sizes[m] + 1):
            # a state that cannot finish under the limit with this
            # pair still open cannot by adding jobs to it either
            load = rest[:, None] * cheapest
            if others is not None:  # the other groups' jobs left, fixed at this rank
                load += others[live]
            alive = (rest > 0) & (bounds.bound(a, b, load) <= limit)
            live, rest, a, b = live[alive], rest[alive] - 1, a[alive] + f_r, b[alive]
            if live.size == 0:
                break
            b = np.maximum(b, a) + g_r
            grown.append((live, np.full(live.size, count), a, b))
        parent, count, a, b = (np.concatenate(column) for column in zip(*grown))
        left = left[:, parent]
        left[m] -= count
        complete = ~left.any(axis=0)
        if r + 1 < len(pairs):
            bound = remaining[r + 1].bound(a, b, remaining[r + 1].load(left))
            fits = np.where(complete, b, bound) <= limit
        else:
            fits = np.ones(b.size, dtype=bool)
        # past a group's last pair its jobs are all placed (the suffix
        # bound cannot see a group that has no pair left)
        for closed in closing[r]:
            fits &= left[closed] == 0
        done = fits & complete
        if done.any():
            limit = min(limit, float(b[done].min()) * (1 + _BOUND_SLACK))
        # preference: the parent's, then more jobs at this pair
        chosen = np.flatnonzero(fits)
        chosen = chosen[np.lexsort((-count[chosen], parent[chosen]))]
        left, a, b = left[:, chosen], a[chosen], b[chosen]
        keep = _pareto_states(radix @ left, a, b, full)
        chosen = chosen[keep]
        steps.append((parent[chosen], count[chosen]))
        left, c1, c2 = left[:, keep], a[keep], b[keep]

    best = int(np.argmin(c2))
    counts = []
    for parent, count in reversed(steps):
        counts.append(int(count[best]))
        best = int(parent[best])
    return float(c2.min()), tuple(
        pair for pair, c in zip(pairs, reversed(counts)) for _ in range(c)
    )


def optimal_multiset(
    table: CostTable, n: int, positions: Sequence[int] | None = None
) -> tuple[float, tuple[int, ...]]:
    """The exact optimum over every multiset of ``n`` cut positions.

    :func:`optimal_multisets` with one group: its dynamic program runs
    the positions in Johnson rank (equal keys in index order), and its
    state is the number of jobs placed and ``(C1, C2)``. Among equal
    optima, where the rank is the index order (every table whose ``g``
    is non-increasing), the first multiset in
    ``combinations_with_replacement`` order wins, unless a tie was
    carried by a state pruned as dominated.

    ``positions`` restricts the candidates (default: every position).
    Returns the makespan and the chosen positions in execution (Johnson)
    order.
    """
    candidates = range(table.k) if positions is None else sorted(set(positions))
    makespan, order = optimal_multisets([(table, n, candidates)])
    return makespan, tuple(p for _, p in order)


def cut_plan(table: CostTable, position: int, job_id: int = 0) -> JobPlan:
    """One job cut at ``position`` of ``table``.

    When the table was built from a graph, the plan also carries the
    concrete mobile node set so the runtime prototype can execute it.
    """
    f, g = table.stage_lengths(position)
    return JobPlan(
        job_id=job_id,
        model=table.model_name,
        cut_position=position,
        compute_time=f,
        comm_time=g,
        cloud_time=table.cloud_rest(position),
        cut_label=table.positions[position],
        mobile_nodes=table.mobile_nodes_at(position) if table.graph is not None else None,
    )


def _split_runs(table: CostTable, split: TwoTypeSplit) -> list[tuple[JobPlan, int]]:
    """The split's jobs as runs in id order: ids ``0..n_a-1`` cut at
    ``position_a``, then ``n_a..n-1`` at ``position_b``."""
    types = ((split.position_a, 0, split.n_a), (split.position_b, split.n_a, split.n_b))
    return [(cut_plan(table, p, first), count) for p, first, count in types if count]


def split_jobs(table: CostTable, split: TwoTypeSplit) -> RunLengthJobs:
    """The split's jobs in Johnson order, one prototype per job type.

    Every job of a run has the same stage pair, so Johnson's stable sort
    of the jobs is the stable sort of the (at most two) runs: the same
    order and ids as :func:`~repro.core.scheduling.schedule_jobs` over
    :func:`plans_for_split`, with no per-job work.
    """
    runs = _split_runs(table, split)
    if len(runs) == 2 and johnson_order([plan.stages for plan, _ in runs]) == [1, 0]:
        runs.reverse()
    return RunLengthJobs(runs)


def plans_for_split(table: CostTable, split: TwoTypeSplit) -> list[JobPlan]:
    """Materialize JobPlans (communication-heavy jobs first, ids 0..n-1)."""
    return list(RunLengthJobs(_split_runs(table, split)))
