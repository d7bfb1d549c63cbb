"""Experiment harness: configs, grid runner, reporting, figure drivers."""

from repro.experiments.configs import ExperimentConfig
from repro.experiments.runner import (
    run_cell,
    run_grid,
    get_instance,
    get_blocks,
    clear_caches,
)
from repro.experiments.report import format_table, format_series, pick
from repro.experiments.ascii_plot import ascii_chart
from repro.experiments.export import rows_to_csv, rows_to_json, load_rows_json
from repro.experiments.presets import CI_SCALE
from repro.experiments import paper
from repro.experiments.paper import FIGURES, run_figure

__all__ = [
    "ExperimentConfig",
    "run_cell",
    "run_grid",
    "get_instance",
    "get_blocks",
    "clear_caches",
    "format_table",
    "format_series",
    "pick",
    "ascii_chart",
    "rows_to_csv",
    "rows_to_json",
    "load_rows_json",
    "CI_SCALE",
    "paper",
    "FIGURES",
    "run_figure",
]
