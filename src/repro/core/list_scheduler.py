"""Prioritized list scheduling (Section 3, "List Scheduling").

Two modes, matching the paper:

* :func:`list_schedule` — tasks are pre-assigned to processors (through a
  cell→processor assignment, which enforces the same-processor
  constraint).  At every step each processor runs its highest-priority
  ready task.  This is the engine behind Algorithm 2 and all the
  prioritized heuristics (level / descendant / DFDS).

* :func:`list_schedule_unassigned` — any processor may run any task
  (classical Graham list scheduling on ``m`` identical machines).  Used as
  the preprocessing step of Algorithm 3 and as the relaxation that yields
  a lower bound on OPT.

Two interchangeable engines implement both modes:

* ``engine="heap"`` — the reference implementation below: one binary heap
  per processor, ``O(N log N + m * makespan)`` for ``N = n*k`` tasks.
* ``engine="vector"`` — :mod:`repro.core.vector_scheduler`: the frontier
  kernel.  The ready set is one sorted array of packed
  ``(processor, key, tid)`` codes advanced a whole superstep at a time
  (group-boundary pops, one CSR gather plus ``np.subtract.at``
  decrement, one ``searchsorted`` + ``insert`` merge), with an exact
  endgame drain once every remaining task is ready.  Bit-identical
  output (pinned by ``tests/test_engine_equivalence.py``), several
  times faster than the heap on wide wavefronts.
* ``engine="auto"`` (default) — the frontier kernel when the priorities
  are numeric and NaN-free *and* the instance is wide enough for
  batching to win: ``min(processors holding a task, n_tasks // union
  levels)`` at least :data:`_FRONTIER_MIN_WIDTH` (every one of the
  ``m`` machines counts in Graham mode), the heap otherwise.  Narrow
  instances stay on the heap because C ``heapq`` beats numpy call
  overhead there; object/tuple keys stay on the heap because they need
  real comparisons.  Each auto decision is counted as
  ``scheduler.route.{heap,vector}`` and the measured width is a
  ``width`` arg on the ``schedule.*`` span.

Priorities are *minimised*; callers wanting "higher is better" negate
their keys.  Ties break deterministically by task id, so results are
reproducible bit-for-bit for a fixed seed — on either engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappush, heappop

import numpy as np

from repro import obs
from repro.core.instance import SweepInstance
from repro.core.schedule import Schedule
from repro.util.errors import InvalidScheduleError

__all__ = [
    "list_schedule",
    "list_schedule_unassigned",
    "UnassignedSchedule",
    "ENGINES",
    "resolve_engine",
]

#: Valid values of the ``engine`` parameter.
ENGINES = ("heap", "vector", "auto")

#: ``engine="auto"`` runs the frontier kernel at or above this width
#: (pops per step): below it numpy's per-call overhead (~2us per ufunc)
#: outweighs the batching and C ``heapq`` wins.  Measured on the
#: 4000-cell tetonly mesh at k=24 with level priorities: with 32-55
#: processors holding tasks (random or 64-cell-block assignments) the
#: heap is faster, from 64 up the kernel.
_FRONTIER_MIN_WIDTH = 64


def _auto_width(
    inst: SweepInstance, m: int, assignment: np.ndarray | None
) -> int:
    """Mean pops per step the frontier kernel can batch.

    ``min(processors holding at least one task, n_tasks // union
    levels)``; without an assignment (Graham mode) all ``m`` machines
    count.
    """
    d = inst.union_dag().num_levels()
    if d <= 0:
        return 0
    procs = m
    if assignment is not None and inst.n_cells:
        held = np.bincount(np.asarray(assignment, dtype=np.int64), minlength=m)
        procs = int(np.count_nonzero(held))
    return min(procs, inst.n_tasks // d)


def _route(
    engine: str,
    priority: np.ndarray | None,
    inst: SweepInstance | None,
    m: int | None,
    assignment: np.ndarray | None,
) -> tuple[str, int | None]:
    """:func:`resolve_engine` plus the width it measured (``None`` if none)."""
    if engine not in ENGINES:
        raise InvalidScheduleError(
            f"unknown engine {engine!r}; choose one of {', '.join(ENGINES)}"
        )
    if engine == "heap":
        return "heap", None
    from repro.core.vector_scheduler import frontier_supports

    if not frontier_supports(priority):
        if engine == "vector":
            raise InvalidScheduleError(
                "vector engine requires numeric NaN-free priorities; "
                "use engine='heap' (or 'auto') for non-scalar keys"
            )
        return "heap", None
    if engine == "vector" or inst is None or m is None:
        return "vector", None
    width = _auto_width(inst, m, assignment)
    return ("vector" if width >= _FRONTIER_MIN_WIDTH else "heap"), width


def resolve_engine(
    engine: str,
    priority: np.ndarray | None,
    inst: SweepInstance | None = None,
    m: int | None = None,
    assignment: np.ndarray | None = None,
) -> str:
    """Map an ``engine`` request to the engine that will actually run.

    ``"auto"`` picks the frontier kernel (``"vector"``) when it can
    reproduce the heap engine exactly (numeric, NaN-free priorities —
    see :func:`repro.core.vector_scheduler.frontier_supports`) *and*,
    when ``inst``/``m`` are given, the width ``min(processors holding a
    task, n_tasks // union levels)`` reaches :data:`_FRONTIER_MIN_WIDTH`;
    the heap otherwise.  ``assignment`` (cell → processor) supplies the
    processors that hold tasks; without it all ``m`` count, as in Graham
    mode.  An explicit ``"vector"`` runs the kernel on any supported
    priorities regardless of width, and raises on unsupported ones.
    """
    return _route(engine, priority, inst, m, assignment)[0]


def _count_route(engine: str, resolved: str) -> None:
    """Record an ``auto`` routing decision as a ``scheduler.route.*`` counter."""
    if engine == "auto":
        obs.inc(
            "scheduler.route.vector"
            if resolved == "vector"
            else "scheduler.route.heap"
        )


def list_schedule(
    inst: SweepInstance,
    m: int,
    assignment: np.ndarray,
    priority: np.ndarray | None = None,
    meta: dict | None = None,
    engine: str = "auto",
) -> Schedule:
    """Prioritized list scheduling with a fixed cell→processor assignment.

    Parameters
    ----------
    inst:
        The sweep instance.
    m:
        Number of processors.
    assignment:
        ``(n_cells,)`` array mapping cells to processors in ``[0, m)``.
    priority:
        ``(n_tasks,)`` array of priorities, **smaller runs first**.  When
        ``None`` all tasks share one priority and ties break by task id.
    meta:
        Provenance stored on the returned :class:`Schedule`.
    engine:
        ``"heap"``, ``"vector"``, or ``"auto"`` (see module docs).  Both
        engines produce bit-identical schedules.

    Notes
    -----
    The produced schedule has no avoidable idle time: a processor is idle
    at a step only if none of its assigned tasks is ready.
    """
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.shape != (inst.n_cells,):
        raise InvalidScheduleError(
            f"assignment has shape {assignment.shape}, expected ({inst.n_cells},)"
        )
    if inst.n_cells and (assignment.min() < 0 or assignment.max() >= m):
        raise InvalidScheduleError(
            f"assignment values must lie in [0, {m})"
        )
    n_tasks = inst.n_tasks
    if priority is not None:
        priority = np.asarray(priority)
        if priority.shape != (n_tasks,):
            raise InvalidScheduleError(
                f"priority has shape {priority.shape}, expected ({n_tasks},)"
            )
    resolved, width = _route(engine, priority, inst, m, assignment)
    _count_route(engine, resolved)
    if resolved == "vector":
        from repro.core.vector_scheduler import frontier_schedule

        with obs.span(
            "schedule.vector",
            cat="scheduler",
            args_fn=lambda: {"n_tasks": n_tasks, "m": m, "width": width},
        ):
            result = frontier_schedule(inst, m, priority, assignment)
        if result is not None:
            return Schedule(
                instance=inst,
                m=m,
                start=result[0],
                assignment=assignment,
                meta=dict(meta or {}),
            )
        # Packed codes overflowed 62 bits: the heap runs any priority.
    with obs.span(
        "schedule.heap",
        cat="scheduler",
        args_fn=lambda: {"n_tasks": n_tasks, "m": m, "width": width},
    ):
        union = inst.union_dag()
        off_l, tgt_l = union.successor_lists()
        indeg = union.indegree_list()
        proc_of_task = np.tile(assignment, inst.k).tolist()
        if priority is None:
            prio = [0] * n_tasks
        else:
            prio = priority.tolist()

        heaps: list[list] = [[] for _ in range(m)]
        nonempty: set[int] = set()
        for tid in range(n_tasks):
            if indeg[tid] == 0:
                p = proc_of_task[tid]
                heappush(heaps[p], (prio[tid], tid))
                nonempty.add(p)

        start = np.full(n_tasks, -1, dtype=np.int64)
        remaining = n_tasks
        t = 0
        while remaining:
            if not nonempty:
                raise InvalidScheduleError(
                    "no ready task but tasks remain — instance has a cycle"
                )
            executed = []
            for p in list(nonempty):
                heap = heaps[p]
                _, tid = heappop(heap)
                start[tid] = t
                executed.append(tid)
                if not heap:
                    nonempty.discard(p)
            remaining -= len(executed)
            for tid in executed:
                for s in tgt_l[off_l[tid] : off_l[tid + 1]]:
                    indeg[s] -= 1
                    if indeg[s] == 0:
                        p = proc_of_task[s]
                        heappush(heaps[p], (prio[s], s))
                        nonempty.add(p)
            t += 1
    # Heap-op counts are exact functions of the run (every task is pushed
    # and popped exactly once), so the metrics cost nothing in the loop.
    obs.inc("scheduler.heap.runs")
    obs.inc("scheduler.heap.pushes", n_tasks)
    obs.inc("scheduler.heap.pops", n_tasks)
    obs.inc("scheduler.heap.steps", t)

    return Schedule(
        instance=inst,
        m=m,
        start=start,
        assignment=np.asarray(assignment, dtype=np.int64),
        meta=dict(meta or {}),
    )


@dataclass
class UnassignedSchedule:
    """Result of Graham list scheduling on ``m`` identical machines.

    This relaxes the same-processor constraint, so it is *not* a feasible
    sweep schedule; it is the preprocessing artifact of Algorithm 3 and a
    lower-bound witness (its makespan is at most ``(2 - 1/m) * OPT_relaxed``
    and ``OPT_relaxed <= OPT``).
    """

    m: int
    start: np.ndarray  # (n_tasks,) step each task ran at
    machine: np.ndarray  # (n_tasks,) machine each task ran on

    @property
    def makespan(self) -> int:
        if self.start.size == 0:
            return 0
        return int(self.start.max()) + 1


def list_schedule_unassigned(
    inst: SweepInstance,
    m: int,
    priority: np.ndarray | None = None,
    engine: str = "auto",
) -> UnassignedSchedule:
    """Greedy (Graham) list scheduling of the union DAG, any-task-anywhere.

    At every step the ``m`` machines grab the ``m`` smallest-priority ready
    tasks.  Every layer of the resulting step structure has at most ``m``
    tasks — exactly the width-reduction Algorithm 3's preprocessing needs.
    ``engine`` selects the heap or vector implementation (bit-identical).
    """
    if m <= 0:
        raise InvalidScheduleError(f"processor count must be positive, got {m}")
    n_tasks = inst.n_tasks
    if priority is not None:
        priority = np.asarray(priority)
        if priority.shape != (n_tasks,):
            raise InvalidScheduleError(
                f"priority has shape {priority.shape}, expected ({n_tasks},)"
            )
    resolved, width = _route(engine, priority, inst, m, None)
    _count_route(engine, resolved)
    if resolved == "vector":
        from repro.core.vector_scheduler import frontier_schedule

        with obs.span(
            "schedule.vector",
            cat="scheduler",
            args_fn=lambda: {"n_tasks": n_tasks, "m": m, "width": width},
        ):
            result = frontier_schedule(inst, m, priority)
        if result is not None:
            return UnassignedSchedule(m=m, start=result[0], machine=result[1])
    with obs.span(
        "schedule.heap_unassigned",
        cat="scheduler",
        args_fn=lambda: {"n_tasks": n_tasks, "m": m, "width": width},
    ):
        union = inst.union_dag()
        off_l, tgt_l = union.successor_lists()
        indeg = union.indegree_list()
        if priority is None:
            prio = [0] * n_tasks
        else:
            prio = priority.tolist()

        heap: list = []
        for tid in range(n_tasks):
            if indeg[tid] == 0:
                heappush(heap, (prio[tid], tid))

        start = np.full(n_tasks, -1, dtype=np.int64)
        machine = np.full(n_tasks, -1, dtype=np.int64)
        remaining = n_tasks
        t = 0
        while remaining:
            if not heap:
                raise InvalidScheduleError(
                    "no ready task but tasks remain — instance has a cycle"
                )
            executed = []
            mach = 0
            while heap and mach < m:
                _, tid = heappop(heap)
                start[tid] = t
                machine[tid] = mach
                executed.append(tid)
                mach += 1
            remaining -= len(executed)
            for tid in executed:
                for s in tgt_l[off_l[tid] : off_l[tid + 1]]:
                    indeg[s] -= 1
                    if indeg[s] == 0:
                        heappush(heap, (prio[s], s))
            t += 1
    obs.inc("scheduler.heap.runs")
    obs.inc("scheduler.heap.pushes", n_tasks)
    obs.inc("scheduler.heap.pops", n_tasks)
    obs.inc("scheduler.heap.steps", t)

    return UnassignedSchedule(m=m, start=start, machine=machine)
