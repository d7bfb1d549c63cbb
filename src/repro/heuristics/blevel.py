"""Critical-path (b-level) priorities — the classic HLFET baseline.

Highest-Level-First with Estimated Times: each task is prioritized by
its b-level (longest chain of tasks below it in its direction DAG);
deeper tasks run first, keeping critical paths moving.  The paper does
not benchmark this classic, but it is the standard list-scheduling
yardstick and slots naturally between the level and descendant
heuristics: level priorities look *up* the DAG, b-levels look *down*
along the longest chain, descendant counts look down along *all* chains.
"""

from __future__ import annotations

import numpy as np

from repro.core.instance import SweepInstance
from repro.core.priority_delay import priority_delay_schedule
from repro.core.schedule import Schedule

__all__ = ["blevel_priorities", "blevel_schedule"]


def blevel_priorities(inst: SweepInstance) -> np.ndarray:
    """b-level of every task within its own direction DAG.

    The union DAG is block diagonal, so its b-levels are the
    per-direction ones; one reverse-level pass runs ``max_i D_i`` levels
    and the result lands in the union's cache, which ships to workers.
    """
    return inst.union_dag().b_levels()


def blevel_schedule(
    inst: SweepInstance,
    m: int,
    seed=None,
    assignment: np.ndarray | None = None,
    with_delays: bool = False,
    delays: np.ndarray | None = None,
    engine: str = "auto",
) -> Schedule:
    """List scheduling with b-level priorities (higher runs first)."""
    return priority_delay_schedule(
        inst, m, seed=seed, assignment=assignment, delays=delays,
        with_delays=with_delays, engine=engine,
        name="blevel_delays" if with_delays else "blevel",
        key=lambda inst, _assignment: blevel_priorities(inst),
    )
