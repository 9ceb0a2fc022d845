"""Experiment harness: one module per table/figure of the paper's §6."""

from repro.experiments import (
    ascii_plot,
    campaign,
    fig4,
    fig11,
    fig12,
    fig13,
    fig14,
    fig_cloud,
    fig_fleet,
    fig_serving,
    noise,
    table1,
)
from repro.experiments.runner import EXPERIMENT_MODELS, SCHEMES, ExperimentEnv

__all__ = [
    "ascii_plot",
    "campaign",
    "EXPERIMENT_MODELS",
    "ExperimentEnv",
    "SCHEMES",
    "fig4",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig_cloud",
    "fig_fleet",
    "fig_serving",
    "noise",
    "table1",
]
