"""Level-priority list scheduling (paper Section 5.2, "Level Priorities").

Task ``(v, i)`` in level ``L_{i,j}`` of its direction DAG gets priority
``j``; smaller runs first.  Without random delays this is the plain
wavefront heuristic the paper compares against in Fig. 3(a); *with*
delays it is exactly Algorithm 2 ("Random Delays with Priorities").
"""

from __future__ import annotations

import numpy as np

from repro.core.instance import SweepInstance
from repro.core.priority_delay import priority_delay_schedule
from repro.core.schedule import Schedule

__all__ = ["level_priority_schedule"]


def level_priority_schedule(
    inst: SweepInstance,
    m: int,
    seed=None,
    assignment: np.ndarray | None = None,
    with_delays: bool = False,
    delays: np.ndarray | None = None,
    engine: str = "auto",
) -> Schedule:
    """List scheduling with per-direction level priorities.

    ``with_delays`` adds the paper's random delays: priority becomes
    ``level + X_i`` (this is Algorithm 2).
    """
    return priority_delay_schedule(
        inst, m, seed=seed, assignment=assignment, delays=delays,
        with_delays=with_delays, engine=engine,
        name="level_delays" if with_delays else "level",
    )
