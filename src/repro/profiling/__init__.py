"""Profiling substrate: device models, cost tables, estimators."""

from repro.profiling.device import DEVICES, DeviceModel, gtx1080_server, raspberry_pi_4
from repro.profiling.energy import (
    CELLULAR_POWER,
    WIFI_POWER,
    PowerProfile,
    energy_latency_frontier,
    job_energy,
    schedule_energy,
)
from repro.profiling.latency import (
    CostTable,
    line_cost_table,
    node_mobile_time,
    path_cost_table,
    smooth_cost_table,
)
from repro.profiling.lookup import LookupTable, build_lookup_table
from repro.profiling.profiler import (
    CommSample,
    ProfileRecord,
    measure_communication,
    profile_network,
)
from repro.profiling.regression import CommLatencyModel, LayerLatencyModel

__all__ = [
    "CELLULAR_POWER",
    "DEVICES",
    "PowerProfile",
    "WIFI_POWER",
    "energy_latency_frontier",
    "job_energy",
    "schedule_energy",
    "CommLatencyModel",
    "CommSample",
    "CostTable",
    "DeviceModel",
    "LayerLatencyModel",
    "LookupTable",
    "ProfileRecord",
    "build_lookup_table",
    "gtx1080_server",
    "line_cost_table",
    "measure_communication",
    "node_mobile_time",
    "path_cost_table",
    "profile_network",
    "raspberry_pi_4",
    "smooth_cost_table",
]
