"""Algorithm 2 ("Random Delays with Priorities") and the priority-delay driver.

Algorithm 1 processes the combined DAG layer by layer, which leaves
processors idle whenever their share of the current layer is exhausted.
Algorithm 2 keeps the same randomisation but turns the combined-DAG layer
``Γ(v, i) = level_in_direction + X_i`` into a list-scheduling *priority*
(smallest first).  Theorem 2: same ``O(OPT log^2 n)`` guarantee;
empirically up to 4x better than Algorithm 1 at high processor counts
(paper Fig. 2(c)).

The paper runs every comparison heuristic "± random delays", so one
driver, :func:`priority_delay_schedule`, runs Algorithm 2 and the level,
descendant, b-level and DFDS heuristics: each heuristic is only a key
function, combined with the delays by :func:`lex_delay_priority`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro import obs
from repro.core.instance import SweepInstance
from repro.core.list_scheduler import list_schedule
from repro.core.random_delay import delayed_task_layers, draw_randomness
from repro.core.schedule import Schedule
from repro.util.errors import InvalidScheduleError

__all__ = [
    "random_delay_priority_schedule",
    "priority_delay_schedule",
    "lex_delay_priority",
]

#: ``key(inst, assignment) -> (n_tasks,)`` heuristic value; higher runs first.
PriorityKey = Callable[[SweepInstance, np.ndarray], np.ndarray]


def lex_delay_priority(
    inst: SweepInstance, delays: np.ndarray, secondary: np.ndarray
) -> np.ndarray:
    """Encode ``(level + X_i, secondary)`` as a single minimised key.

    The paper leaves the combination rule open; we make the delayed level
    primary (Algorithm 2's contention resolution) and let a *larger*
    ``secondary`` run first within a delayed level.  One integer keeps
    the list scheduler's heap keys scalar.
    """
    primary = delayed_task_layers(inst, delays)
    secondary = np.asarray(secondary, dtype=np.int64)
    lo = int(secondary.min()) if secondary.size else 0
    shifted = secondary - lo  # nonnegative
    span = int(shifted.max()) + 1 if shifted.size else 1
    return primary * span + ((span - 1) - shifted)


def priority_delay_schedule(
    inst: SweepInstance,
    m: int,
    seed=None,
    assignment: np.ndarray | None = None,
    delays: np.ndarray | None = None,
    with_delays: bool = True,
    engine: str = "auto",
    name: str = "random_delay_priority",
    key: PriorityKey | None = None,
) -> Schedule:
    """List-schedule by ``key`` (higher first), ± random delays.

    Draws the delays (only ``with_delays`` and unpinned), then the
    assignment (only when none is given), from one ``Generator``.  The
    priority is the delayed level without a ``key``; with one it is
    :func:`lex_delay_priority` with delays and ``-key`` without.
    ``name`` is recorded as ``meta["algorithm"]``; ``with_delays=False``
    records all-zero delays and rejects pinned ones.
    """
    if not with_delays:
        if delays is not None:
            raise InvalidScheduleError(
                f"{name}: delays were given but with_delays=False would "
                "ignore them"
            )
        delays = np.zeros(inst.k, dtype=np.int64)
    delays, assignment = draw_randomness(inst, m, seed, delays, assignment)
    with obs.span(
        "heuristics.priority",
        cat="sched",
        args_fn=lambda: {"algorithm": name, "n_tasks": inst.n_tasks},
    ):
        if key is None:
            priority = delayed_task_layers(inst, delays)
        elif with_delays:
            priority = lex_delay_priority(inst, delays, key(inst, assignment))
        else:
            priority = -key(inst, assignment)
    return list_schedule(
        inst,
        m,
        assignment,
        priority=priority,
        meta={"algorithm": name, "delays": np.asarray(delays).copy()},
        engine=engine,
    )


def random_delay_priority_schedule(
    inst: SweepInstance,
    m: int,
    seed=None,
    assignment: np.ndarray | None = None,
    delays: np.ndarray | None = None,
    engine: str = "auto",
) -> Schedule:
    """Run Algorithm 2 ("Random Delays with Priorities").

    Parameters mirror :func:`repro.core.random_delay.random_delay_schedule`:
    ``assignment`` overrides the random cell→processor map (used for block
    partitioning), ``delays`` pins the per-direction random delays.
    ``engine`` selects the list-scheduling engine (see
    :mod:`repro.core.list_scheduler`).
    """
    return priority_delay_schedule(
        inst, m, seed=seed, assignment=assignment, delays=delays,
        engine=engine,
    )
