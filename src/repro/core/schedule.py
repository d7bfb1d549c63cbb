"""Schedule representation and the independent feasibility checker.

A feasible sweep schedule (Section 3) must satisfy:

1. precedence within every direction DAG,
2. at most one task per processor per time step (unit tasks, no
   preemption),
3. every copy of a cell runs on the same processor.

:class:`Schedule` stores start times and the cell→processor assignment;
:func:`validate_schedule` re-checks all three constraints from scratch so
algorithm bugs cannot hide behind construction-time guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.core.instance import SweepInstance
from repro.util.errors import InvalidScheduleError

__all__ = ["Schedule", "validate_schedule"]


@dataclass
class Schedule:
    """A complete schedule for a :class:`SweepInstance`.

    Attributes
    ----------
    instance:
        The scheduled instance.
    m:
        Number of processors.
    start:
        ``(n_tasks,)`` int array; ``start[tid]`` is the 0-indexed time step
        at which task ``tid`` executes (unit processing time).
    assignment:
        ``(n_cells,)`` int array mapping each cell to its processor.  Tasks
        inherit the processor of their cell, which enforces the
        same-processor constraint by construction.
    meta:
        Free-form provenance (algorithm name, seed, parameters).
    """

    instance: SweepInstance
    m: int
    start: np.ndarray
    assignment: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def makespan(self) -> int:
        """Number of time steps used (max start + 1)."""
        if self.start.size == 0:
            return 0
        return int(self.start.max()) + 1

    def task_proc(self) -> np.ndarray:
        """Processor of every task (``assignment`` lifted to task ids)."""
        return np.tile(self.assignment, self.instance.k)

    def proc_loads(self) -> np.ndarray:
        """Number of tasks run by each processor."""
        return np.bincount(self.task_proc(), minlength=self.m)

    def idle_fraction(self) -> float:
        """Fraction of processor-steps spent idle, ``1 - N/(m*makespan)``."""
        ms = self.makespan
        if ms == 0:
            return 0.0
        return 1.0 - self.instance.n_tasks / (self.m * ms)

    def validate(self) -> None:
        """Raise :class:`InvalidScheduleError` on any constraint violation."""
        with obs.span("core.validate", cat="core",
                      args_fn=lambda: {"n_tasks": self.instance.n_tasks}):
            validate_schedule(self)

    def __repr__(self) -> str:
        return (
            f"Schedule(m={self.m}, makespan={self.makespan}, "
            f"algorithm={self.meta.get('algorithm', '?')})"
        )


def validate_schedule(s: Schedule) -> None:
    """Independently verify feasibility of ``s``.

    Checks vertex-count consistency, that every task has a nonnegative
    start, processor capacity (one task per processor per step), and every
    precedence edge of every direction DAG.
    """
    inst = s.instance
    n, k = inst.n_cells, inst.k
    if s.start.shape != (inst.n_tasks,):
        raise InvalidScheduleError(
            f"start has shape {s.start.shape}, expected ({inst.n_tasks},)"
        )
    if s.assignment.shape != (n,):
        raise InvalidScheduleError(
            f"assignment has shape {s.assignment.shape}, expected ({n},)"
        )
    if s.m <= 0:
        raise InvalidScheduleError(f"processor count must be positive, got {s.m}")
    if n == 0:
        return
    if s.start.min() < 0:
        missing = int((s.start < 0).sum())
        raise InvalidScheduleError(f"{missing} tasks have no start time")
    if s.assignment.min() < 0 or s.assignment.max() >= s.m:
        raise InvalidScheduleError(
            f"assignment values must lie in [0, {s.m}); found "
            f"[{s.assignment.min()}, {s.assignment.max()}]"
        )

    # Capacity: a (processor, step) slot is used at most once.
    proc = s.task_proc()
    slot = proc.astype(np.int64) * (int(s.start.max()) + 1) + s.start
    uniq, counts = np.unique(slot, return_counts=True)
    if counts.size and counts.max() > 1:
        bad = uniq[counts.argmax()]
        raise InvalidScheduleError(
            f"processor-step slot {bad} holds {counts.max()} tasks"
        )

    # Precedence within every direction.
    for i, g in enumerate(inst.dags):
        if not g.num_edges:
            continue
        src = g.edges[:, 0] + i * n
        dst = g.edges[:, 1] + i * n
        violated = s.start[src] >= s.start[dst]
        if violated.any():
            j = int(np.flatnonzero(violated)[0])
            raise InvalidScheduleError(
                f"direction {i}: edge ({g.edges[j, 0]} -> {g.edges[j, 1]}) "
                f"violated: start {s.start[src[j]]} >= {s.start[dst[j]]}"
            )
