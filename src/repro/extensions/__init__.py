"""Extensions beyond the paper: 3-stage shop, heterogeneous jobs, memory, devices, online."""

from repro.extensions.flowshop3 import (
    flow_shop3_completion_times,
    flow_shop3_makespan,
    johnson3_order,
    johnson_dominance_holds,
    schedule_jobs_3stage,
    two_stage_approximation_gap,
)
from repro.extensions.heterogeneous import ModelJobs, jps_heterogeneous
from repro.extensions.memory import (
    feasible_positions,
    jps_memory_constrained,
    mobile_memory_bytes,
    restrict_table,
)
from repro.extensions.multidevice import (
    MultiDeviceResult,
    fair_share_tables,
    plan_contention_aware,
    simulate_shared_uplink,
)
from repro.extensions.online import (
    OnlineJpsScheduler,
    ReleasedJob,
    clairvoyant_makespan,
    flow_shop_makespan_with_releases,
    offline_lower_bound,
)

__all__ = [
    "ModelJobs",
    "MultiDeviceResult",
    "fair_share_tables",
    "feasible_positions",
    "jps_memory_constrained",
    "mobile_memory_bytes",
    "plan_contention_aware",
    "restrict_table",
    "simulate_shared_uplink",
    "OnlineJpsScheduler",
    "ReleasedJob",
    "clairvoyant_makespan",
    "flow_shop_makespan_with_releases",
    "offline_lower_bound",
    "flow_shop3_completion_times",
    "flow_shop3_makespan",
    "johnson3_order",
    "johnson_dominance_holds",
    "jps_heterogeneous",
    "schedule_jobs_3stage",
    "two_stage_approximation_gap",
]
