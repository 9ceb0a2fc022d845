"""The paper's contribution: joint DNN partition and scheduling."""

from repro.core.analysis import (
    best_single_cut_rate,
    fractional_lower_bound,
    speedup_report,
    utilization_report,
)
from repro.core.baselines import (
    brute_force,
    brute_force_search_space,
    cloud_only,
    local_only,
    partition_only,
    single_job_optimal_cut,
)
from repro.core.continuous import (
    ContinuousProblem,
    ExponentialCommModel,
    LinearComputeModel,
    average_makespan,
    crossing_point,
    fit_continuous,
    kkt_stationarity_residual,
    lse_max,
)
from repro.core.general import (
    alg3_consistent_plans,
    alg3_partition,
    alg3_schedule,
    representative_paths,
)
from repro.core.joint import jps_line
from repro.core.partition import (
    TwoTypeSplit,
    binary_search_cut,
    linear_scan_cut,
    optimal_multiset,
    partition_ratio,
    plans_for_split,
    split_best_pair,
    split_by_paper_ratio,
    split_exact,
)
from repro.core.plans import JobPlan, Schedule
from repro.core.scheduling import (
    best_order_brute_force,
    flow_shop_completion_times,
    flow_shop_makespan,
    johnson_makespan,
    johnson_order,
    proposition_4_1_makespan,
    schedule_jobs,
)

__all__ = [
    "ContinuousProblem",
    "ExponentialCommModel",
    "JobPlan",
    "LinearComputeModel",
    "Schedule",
    "TwoTypeSplit",
    "alg3_consistent_plans",
    "alg3_partition",
    "alg3_schedule",
    "average_makespan",
    "best_single_cut_rate",
    "best_order_brute_force",
    "binary_search_cut",
    "brute_force",
    "brute_force_search_space",
    "cloud_only",
    "crossing_point",
    "fit_continuous",
    "flow_shop_completion_times",
    "flow_shop_makespan",
    "fractional_lower_bound",
    "johnson_makespan",
    "johnson_order",
    "jps_line",
    "kkt_stationarity_residual",
    "linear_scan_cut",
    "local_only",
    "lse_max",
    "optimal_multiset",
    "partition_only",
    "partition_ratio",
    "plans_for_split",
    "proposition_4_1_makespan",
    "representative_paths",
    "schedule_jobs",
    "single_job_optimal_cut",
    "speedup_report",
    "split_best_pair",
    "split_by_paper_ratio",
    "split_exact",
    "utilization_report",
]
