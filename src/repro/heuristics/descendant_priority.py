"""Descendant-count priorities (paper Section 5.2, after [Plimpton et al.]).

Each task ``(v, i)`` is prioritized by the number of its descendants in
its own direction DAG ``G_i``; tasks with *more* descendants run first
(they unlock the most downstream work).  With random delays the count
breaks ties within a delayed level (see :mod:`repro.core.priority_delay`).
"""

from __future__ import annotations

import numpy as np

from repro.core.instance import SweepInstance
from repro.core.priority_delay import priority_delay_schedule
from repro.core.schedule import Schedule

__all__ = ["descendant_priority_schedule", "descendant_counts_per_task"]


def descendant_counts_per_task(inst: SweepInstance) -> np.ndarray:
    """Descendant count of every task within its own direction DAG."""
    out = np.empty(inst.n_tasks, dtype=np.int64)
    n = inst.n_cells
    for i, g in enumerate(inst.dags):
        out[i * n : (i + 1) * n] = g.descendant_counts()
    return out


def descendant_priority_schedule(
    inst: SweepInstance,
    m: int,
    seed=None,
    assignment: np.ndarray | None = None,
    with_delays: bool = False,
    delays: np.ndarray | None = None,
    engine: str = "auto",
) -> Schedule:
    """List scheduling with exact descendant-count priorities (± random
    delays); counts come from :meth:`Dag.descendant_counts`."""
    return priority_delay_schedule(
        inst, m, seed=seed, assignment=assignment, delays=delays,
        with_delays=with_delays, engine=engine,
        name="descendant_delays" if with_delays else "descendant",
        key=lambda inst, _assignment: descendant_counts_per_task(inst),
    )
