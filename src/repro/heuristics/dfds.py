"""Depth-First Descendant-Seeking (DFDS) priorities [Pautz 2002].

The paper's description (Section 5.2), which we follow literally:

* the *b-level* of a task is the number of nodes on the longest path from
  it to a leaf of its direction DAG;
* every task with **off-processor children** gets priority
  ``max(b-level of children) + K`` where ``K`` is a constant at least the
  number of levels in the DAG;
* every task with no off-processor children gets one less than the
  highest priority among its children;
* a task with no off-processor descendants gets priority 0;
* **higher** priority runs first.

The effect: work that feeds other processors is pulled forward
(depth-first along chains leading to off-processor edges), which keeps
downstream processors busy.  DFDS needs the processor assignment before
priorities can be computed, so the assignment is drawn (or passed in)
first.
"""

from __future__ import annotations

import numpy as np

from repro.core.assignment import random_cell_assignment
from repro.core.dag import level_groups
from repro.core.instance import SweepInstance
from repro.core.priority_delay import priority_delay_schedule
from repro.core.schedule import Schedule
from repro.util.rng import as_rng

__all__ = ["dfds_priorities", "dfds_schedule"]

#: Test-only fault-injection point for the reverse-level mutation-kill
#: suite (``tests/test_priority_reduction.py``).  One of ``None``
#: (production) or ``"dropped_clamp"`` (the ``max(child) - 1``
#: propagation loses its clamp at 0, so a task with children but no
#: off-processor descendant goes negative).  Never set outside tests.
_MUTATION = None


def dfds_priorities(inst: SweepInstance, assignment: np.ndarray) -> np.ndarray:
    """DFDS priority of every task (higher runs first).

    ``assignment`` maps cells to processors.  Computed on the union DAG
    (block diagonal, so each task only sees its own direction), level by
    level from the deepest, with ``K_i`` the level count of direction
    ``i``: the off-processor flag and ``max(child b-level) + K_i`` are
    one vectorised pass over all edges; only the clamped
    ``max(child) - 1`` propagation loops, once per level of the deepest
    direction (``max_i D_i`` steps, not ``sum_i D_i``).
    """
    n, k = inst.n_cells, inst.k
    out = np.zeros(inst.n_tasks, dtype=np.int64)
    union = inst.union_dag()
    b = union.b_levels()  # before the layout below: their peaks don't stack
    parents, children, seg, bounds = union.reverse_level_layout()
    if not parents.size:
        return out
    proc = np.tile(np.asarray(assignment), k)
    starts = seg[:-1]
    # A parent has an off-processor child iff its children's processors
    # are not all its own: their min or max differs from it.
    child_proc = proc[children]
    own = proc[parents]
    off_proc = (np.minimum.reduceat(child_proc, starts) != own) | (
        np.maximum.reduceat(child_proc, starts) != own
    )
    K = union.level_of().reshape(k, n).max(axis=1) + 1
    seeded = parents[off_proc]
    out[seeded] = np.maximum.reduceat(b[children], starts)[off_proc] + K[seeded // n]
    for ps, es, group_starts in level_groups(seg, bounds):
        best = np.maximum.reduceat(out[children[es]], group_starts) - 1
        if _MUTATION != "dropped_clamp":
            np.maximum(best, 0, out=best)
        inner = ~off_proc[ps]
        out[parents[ps][inner]] = best[inner]
    return out


def dfds_schedule(
    inst: SweepInstance,
    m: int,
    seed=None,
    assignment: np.ndarray | None = None,
    with_delays: bool = False,
    delays: np.ndarray | None = None,
    engine: str = "auto",
) -> Schedule:
    """List scheduling with DFDS priorities (± random delays).

    ``with_delays`` combines lexicographically with the delayed level, as
    for the descendant heuristic (see :mod:`repro.core.priority_delay`).
    The key reads the assignment, so it is drawn before the delays.
    """
    rng = as_rng(seed)
    if assignment is None:
        assignment = random_cell_assignment(inst.n_cells, m, rng)
    return priority_delay_schedule(
        inst, m, seed=rng, assignment=assignment, delays=delays,
        with_delays=with_delays, engine=engine,
        name="dfds_delays" if with_delays else "dfds",
        key=dfds_priorities,
    )
