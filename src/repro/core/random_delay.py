"""Algorithm 1: "Random Delay" — the paper's first provable algorithm.

Steps (verbatim from the paper):

1. choose a delay ``X_i`` uniformly from ``{0, .., k-1}`` per direction;
2. combine all DAGs into one DAG ``G`` whose layer ``L_r`` is the union of
   the per-direction levels shifted by the delays;
3. assign every cell a processor uniformly at random;
4. process layers sequentially; within a layer, each processor runs its
   tasks back-to-back.

Guarantee (Theorem 1): the makespan is ``O(OPT log^2 n)`` with high
probability.  The two randomisations do contention resolution — Lemma 2
bounds the copies of any cell per layer by ``O(log n)``, Lemma 3 the tasks
per processor per layer by ``O(max(|V_r|/m, 1) log^2 n)``.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.core.assignment import random_cell_assignment
from repro.core.instance import SweepInstance
from repro.core.layered import schedule_layers_sequentially
from repro.core.schedule import Schedule
from repro.util.errors import InvalidScheduleError
from repro.util.rng import as_rng

__all__ = [
    "random_delay_schedule",
    "draw_delays",
    "draw_randomness",
    "delayed_task_layers",
]


def draw_delays(k: int, rng) -> np.ndarray:
    """Draw ``X_i ~ Uniform{0..k-1}`` for every direction (paper step 1)."""
    return rng.integers(0, max(k, 1), size=k, dtype=np.int64)


def draw_randomness(
    inst: SweepInstance,
    m: int,
    seed=None,
    delays: np.ndarray | None = None,
    assignment: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Fill in the delays, then the assignment, unless the caller pinned them.

    Both draws come from one ``Generator``, in that order.  Pinned delays
    must have shape ``(k,)``.
    """
    with obs.span("core.randomness", cat="core",
                  args_fn=lambda: {"k": inst.k, "m": m}):
        rng = as_rng(seed)
        if delays is None:
            delays = draw_delays(inst.k, rng)
        elif np.shape(delays) != (inst.k,):
            raise InvalidScheduleError(
                f"delays has shape {np.shape(delays)}, expected ({inst.k},)"
            )
        if assignment is None:
            assignment = random_cell_assignment(inst.n_cells, m, rng)
        return delays, assignment


def delayed_task_layers(inst: SweepInstance, delays: np.ndarray) -> np.ndarray:
    """Layer of every task in the combined DAG: level-in-direction + X_i."""
    delays = np.asarray(delays, dtype=np.int64)
    if delays.shape != (inst.k,):
        raise InvalidScheduleError(
            f"delays has shape {delays.shape}, expected ({inst.k},)"
        )
    per_task_delay = np.repeat(delays, inst.n_cells)
    return inst.task_levels() + per_task_delay


def random_delay_schedule(
    inst: SweepInstance,
    m: int,
    seed=None,
    assignment: np.ndarray | None = None,
    delays: np.ndarray | None = None,
    engine: str = "auto",
) -> Schedule:
    """Run Algorithm 1 and return the resulting (validated-shape) schedule.

    Parameters
    ----------
    seed:
        RNG seed; drives both the delays and the random assignment.
    assignment:
        Override the random cell→processor map (e.g. a block assignment
        from :mod:`repro.partition`); when given, only the delays are
        random.
    delays:
        Override the random per-direction delays (mainly for tests).
    engine:
        Accepted for signature uniformity with the other registry
        algorithms; Algorithm 1 processes layers sequentially and never
        runs a list scheduler, so the value is unused.
    """
    del engine
    delays, assignment = draw_randomness(inst, m, seed, delays, assignment)
    with obs.span(
        "heuristics.priority",
        cat="sched",
        args_fn=lambda: {"algorithm": "random_delay", "n_tasks": inst.n_tasks},
    ):
        layers = delayed_task_layers(inst, delays)
    return schedule_layers_sequentially(
        inst,
        m,
        layers,
        assignment,
        meta={
            "algorithm": "random_delay",
            "delays": np.asarray(delays).copy(),
        },
        # Levels shifted by a per-direction constant keep every edge going
        # to a strictly higher layer; skip the O(E) re-check.
        check_layers=False,
    )
