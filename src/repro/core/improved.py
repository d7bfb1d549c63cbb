"""Algorithm 3: "Improved Random Delay" — the O(log m log log log m) one.

The refinement over Algorithm 1 is a *preprocessing* step that reduces
layer width before the random delays are applied:

1. build ``H``, the union of all direction DAGs with every copy distinct,
   and run plain greedy list scheduling on ``m`` identical machines; let
   ``T`` be its makespan.  Define new per-direction levels
   ``L'_{i,j}`` = tasks of direction ``i`` executed at step ``j`` — by
   construction every layer now holds at most ``m`` tasks;
2. draw delays ``X_i ~ Uniform{0..k-1}``;
3. combine: layer ``r`` of ``G''`` is the union of ``L'_{i, r - X_i}``;
4. assign each cell a uniformly random processor;
5. process layers of ``G''`` sequentially (same as Algorithm 1 step 4).

Theorem 3 bounds the expected per-layer time by
``O(mu_t/m + log m * log log log m)``, giving an expected
``O(log m log log log m)``-approximation (Corollary 1).

We also provide the natural compacted variant (``priorities=True``) that
feeds the preprocessed layer numbers to the list scheduler as priorities,
mirroring how Algorithm 2 compacts Algorithm 1.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.core.instance import SweepInstance
from repro.core.layered import schedule_layers_sequentially
from repro.core.list_scheduler import list_schedule, list_schedule_unassigned
from repro.core.random_delay import draw_randomness
from repro.core.schedule import Schedule
from repro.util.errors import InvalidScheduleError

__all__ = ["improved_random_delay_schedule", "preprocess_levels"]


def preprocess_levels(
    inst: SweepInstance, m: int, engine: str = "auto"
) -> np.ndarray:
    """Step 1 of Algorithm 3: greedy-list levels of width at most ``m``.

    Returns the ``(n_tasks,)`` array of preprocessed per-direction levels
    ``j`` such that task ``(v, i)`` lies in ``L'_{i,j}`` (0-indexed).  The
    greedy schedule respects precedence, so within a direction every edge
    goes to a strictly later step.
    """
    relaxed = list_schedule_unassigned(inst, m, engine=engine)
    return relaxed.start.copy()


def improved_random_delay_schedule(
    inst: SweepInstance,
    m: int,
    seed=None,
    assignment: np.ndarray | None = None,
    delays: np.ndarray | None = None,
    priorities: bool = False,
    preprocessed: np.ndarray | None = None,
    engine: str = "auto",
) -> Schedule:
    """Run Algorithm 3 ("Improved Random Delay").

    Parameters
    ----------
    priorities:
        ``False`` (paper's Algorithm 3): layer-sequential processing.
        ``True``: compact with prioritized list scheduling instead —
        the same idle-time elimination Algorithm 2 applies to Algorithm 1.
    preprocessed:
        Reuse a precomputed :func:`preprocess_levels` result (the
        preprocessing is deterministic, so experiments sweeping seeds can
        share it).
    """
    name = "improved_random_delay" + ("_priority" if priorities else "")
    delays, assignment = draw_randomness(inst, m, seed, delays, assignment)
    delays = np.asarray(delays, dtype=np.int64)
    with obs.span(
        "heuristics.priority",
        cat="sched",
        args_fn=lambda: {"algorithm": name, "n_tasks": inst.n_tasks},
    ):
        if preprocessed is None:
            preprocessed = preprocess_levels(inst, m, engine=engine)
        else:
            preprocessed = np.asarray(preprocessed, dtype=np.int64)
            if preprocessed.shape != (inst.n_tasks,):
                raise InvalidScheduleError(
                    f"preprocessed has shape {preprocessed.shape}, "
                    f"expected ({inst.n_tasks},)"
                )
        layers = preprocessed + np.repeat(delays, inst.n_cells)
    meta = {
        "algorithm": name,
        "delays": np.asarray(delays).copy(),
        "preprocess_makespan": int(preprocessed.max()) + 1 if preprocessed.size else 0,
    }
    if priorities:
        return list_schedule(
            inst, m, assignment, priority=layers, meta=meta, engine=engine
        )
    return schedule_layers_sequentially(
        inst, m, layers, assignment, meta=meta, check_layers=False
    )
