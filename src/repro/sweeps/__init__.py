"""Sweep machinery: direction sets, DAG induction, cycle breaking."""

from repro.sweeps.directions import (
    level_symmetric,
    fibonacci_sphere,
    circle_directions,
    random_directions,
    directions_for_mesh,
    num_level_symmetric_directions,
)
from repro.sweeps.dag_builder import sweep_edges, build_instance
from repro.sweeps.cycle_breaking import break_cycles, find_sccs
from repro.sweeps.batching import direction_batches, batched_schedule

__all__ = [
    "level_symmetric",
    "fibonacci_sphere",
    "circle_directions",
    "random_directions",
    "directions_for_mesh",
    "num_level_symmetric_directions",
    "sweep_edges",
    "build_instance",
    "break_cycles",
    "find_sccs",
    "direction_batches",
    "batched_schedule",
]
