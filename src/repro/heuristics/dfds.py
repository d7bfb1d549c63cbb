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
from repro.core.instance import SweepInstance
from repro.core.priority_delay import priority_delay_schedule
from repro.core.schedule import Schedule
from repro.util.rng import as_rng

__all__ = ["dfds_priorities", "dfds_schedule"]


def dfds_priorities(inst: SweepInstance, assignment: np.ndarray) -> np.ndarray:
    """DFDS priority of every task (higher runs first).

    Computed independently per direction DAG in reverse topological
    order, as described above.
    """
    assignment = np.asarray(assignment)
    n = inst.n_cells
    out = np.zeros(inst.n_tasks, dtype=np.int64)
    for i, g in enumerate(inst.dags):
        if n == 0:
            continue
        b = g.b_levels()
        K = max(g.num_levels(), 1)
        off, tgt = g.successor_csr()
        off_l = off.tolist()
        tgt_l = tgt.tolist()
        proc = assignment.tolist()
        b_l = b.tolist()
        pr = [0] * n
        for v in g.topological_order().tolist()[::-1]:
            children = tgt_l[off_l[v] : off_l[v + 1]]
            if not children:
                continue
            my_proc = proc[v]
            if any(proc[c] != my_proc for c in children):
                pr[v] = max(b_l[c] for c in children) + K
            else:
                best = max(pr[c] for c in children)
                pr[v] = best - 1 if best > 0 else 0
        out[i * n : (i + 1) * n] = pr
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
