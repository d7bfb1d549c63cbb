"""Layer-sequential schedule construction (step 4 of Algorithms 1 and 3).

Given a layer number for every task (the combined-DAG level ``r = level +
X_i``), the schedule processes layers strictly in order: layer ``r+1``
starts only after every task of layer ``r`` finished; within a layer, the
tasks assigned to one processor run back-to-back in arbitrary (here:
task-id) order.

Because every precedence edge of the combined DAG goes from a lower layer
to a strictly higher layer, the result is always feasible.  The whole
construction is vectorised: one ``argsort`` over tasks plus ``bincount``
arithmetic — no per-task Python loop — so Algorithm 1 runs in
near-linear time as the paper advertises.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.core.instance import SweepInstance
from repro.core.schedule import Schedule
from repro.util.errors import InvalidScheduleError

__all__ = ["schedule_layers_sequentially", "layer_makespans"]


def layer_makespans(task_layer: np.ndarray, task_proc: np.ndarray, m: int) -> np.ndarray:
    """Per-layer processing time: ``max_P |{tasks of layer r on P}|``.

    Empty layers cost 0 steps (they are skipped).  Returns an array of
    length ``max(task_layer) + 1``.
    """
    if task_layer.size == 0:
        return np.zeros(0, dtype=np.int64)
    n_layers = int(task_layer.max()) + 1
    key = task_layer.astype(np.int64) * m + task_proc
    counts = np.bincount(key, minlength=n_layers * m)
    return counts.reshape(n_layers, m).max(axis=1)


def schedule_layers_sequentially(
    inst: SweepInstance,
    m: int,
    task_layer: np.ndarray,
    assignment: np.ndarray,
    meta: dict | None = None,
    check_layers: bool = True,
) -> Schedule:
    """Build the layer-by-layer schedule of Algorithms 1 / 3.

    Parameters
    ----------
    task_layer:
        ``(n_tasks,)`` layer index of every task in the combined DAG
        (``level-in-direction + X_i``).
    assignment:
        ``(n_cells,)`` cell→processor map.
    check_layers:
        Verify that every precedence edge goes to a strictly higher layer
        (cheap, vectorised).  Disable only for internally-derived layers.
    """
    with obs.span("schedule.layers", cat="core"):
        task_layer = np.asarray(task_layer, dtype=np.int64)
        assignment = np.asarray(assignment, dtype=np.int64)
        n_tasks = inst.n_tasks
        if task_layer.shape != (n_tasks,):
            raise InvalidScheduleError(
                f"task_layer has shape {task_layer.shape}, expected ({n_tasks},)"
            )
        if check_layers and n_tasks:
            union = inst.union_dag()
            if union.num_edges:
                src = union.edges[:, 0]
                dst = union.edges[:, 1]
                bad = task_layer[src] >= task_layer[dst]
                if bad.any():
                    j = int(np.flatnonzero(bad)[0])
                    raise InvalidScheduleError(
                        f"layer assignment violates precedence on edge "
                        f"{src[j]} -> {dst[j]}: layers "
                        f"{task_layer[src[j]]} >= {task_layer[dst[j]]}"
                    )

        task_proc = np.tile(assignment, inst.k)
        per_layer = layer_makespans(task_layer, task_proc, m)
        # Layer r occupies the half-open step interval
        # [layer_offset[r], layer_offset[r] + per_layer[r]).
        layer_offset = np.concatenate([[0], np.cumsum(per_layer)[:-1]]).astype(np.int64)

        # Position of each task inside its (layer, processor) group.
        start = np.empty(n_tasks, dtype=np.int64)
        if n_tasks:
            key = task_layer * m + task_proc
            order = np.argsort(key, kind="stable")
            sorted_key = key[order]
            new_group = np.empty(n_tasks, dtype=bool)
            new_group[0] = True
            np.not_equal(sorted_key[1:], sorted_key[:-1], out=new_group[1:])
            group_id = np.cumsum(new_group) - 1
            group_first = np.flatnonzero(new_group)
            pos_in_group = np.arange(n_tasks, dtype=np.int64) - group_first[group_id]
            start[order] = layer_offset[task_layer[order]] + pos_in_group

        return Schedule(
            instance=inst,
            m=m,
            start=start,
            assignment=assignment,
            meta=dict(meta or {}),
        )
