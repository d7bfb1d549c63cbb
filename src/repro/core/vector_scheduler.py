"""Frontier list-scheduling kernel (``engine="vector"``).

The one batched engine behind
:func:`repro.core.list_scheduler.list_schedule` and
:func:`~repro.core.list_scheduler.list_schedule_unassigned`; the heap
engine in :mod:`repro.core.list_scheduler` is the reference and the
narrow-instance path.  The whole ready frontier lives in one sorted
``int64`` array of packed ``(processor, key, tid)`` codes (``(key, tid)``
in Graham mode) and advances one superstep at a time — the BSP view of
DAG scheduling, where supersteps over entire ready frontiers are the
right granularity to vectorise.

One superstep of the kernel:

1. **pop** — each processor's minimum is the first code of its run in
   the sorted frontier, so one group-boundary mask pops every
   processor's task at once (Graham mode pops the first ``m`` codes).
2. **decrement** — successors of all popped tasks are gathered in one
   CSR slice-concatenation (:meth:`repro.core.dag.Dag.successor_csr`)
   and ``np.subtract.at`` decrements once per gathered edge, so
   duplicate edges and sibling completions in the same superstep fold
   exactly.
3. **merge** — newly-ready codes are sorted and deduplicated (a task
   appears once per predecessor that finished in the superstep) with an
   adjacent-difference mask, then merged into the remaining frontier
   with one ``np.searchsorted`` + ``np.insert``.

**Endgame drain**: once ``frontier.size == remaining`` every unexecuted
task is ready, so no promotion can happen again and the rest of the
schedule is a pure drain.  The kernel then assigns *all* remaining start
times at once — each task's rank within its processor's run (assigned
mode), or ``t + i // m`` on machine ``i % m`` (Graham mode).  This is
exact: with no promotions pending, list scheduling degenerates to
round-robin over each queue in ``(key, tid)`` order.

Key handling: integer priorities with a small range are used directly
(offset by the minimum); anything else numeric is rank compressed through
``np.unique``, which preserves order and equality and therefore the
schedule, exactly.  Object (tuple) keys and NaN-bearing floats are left
to the heap engine, whose comparison semantics they need.

Output is bit-identical to the heap engine — same start times, same
machine numbers, same tie-breaks, same errors — which
``tests/test_engine_equivalence.py`` pins on every fuzz spec family,
every registry golden, the corpus, and hypothesis-random instances, and
``tests/test_engine_mutations.py`` proves by killing the seeded faults
below.  Callers normally never import this module: they pass
``engine="vector"`` (or let ``engine="auto"`` route wide instances here)
to the public entry points.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.core.instance import SweepInstance
from repro.util.errors import InvalidScheduleError

__all__ = ["frontier_supports", "frontier_keys", "frontier_schedule"]

#: Integer priorities whose value range exceeds ``_DENSE_SLACK * N + 1024``
#: go through rank compression instead of a direct offset, so packed keys
#: never blow up on sparse priorities like ``level * 10**9``.
_DENSE_SLACK = 4

#: Test-only fault-injection point for the mutation-kill suite
#: (``tests/test_engine_mutations.py``).  One of ``None`` (production),
#: ``"frontier_off_by_one"`` (the pop cut loses its last task each
#: superstep), ``"stale_indegree"`` (duplicate decrements of one target
#: in a superstep fold to one), ``"unstable_tiebreak"`` (the tid
#: component of the packed code is inverted, flipping equal-priority
#: tie-breaks), ``"skip_promotion"`` (all but the first newly-ready task
#: of a superstep are dropped), or ``"drain_off_by_one"`` (endgame drain
#: ranks lag one slot from each queue's second task on, so its first two
#: tasks share a step).  Never set outside tests.
_MUTATION = None


def frontier_supports(priority: np.ndarray | None) -> bool:
    """Can the frontier kernel reproduce the heap engine on this priority?

    ``None`` (uniform) and any real-numeric array without NaN qualify —
    integer keys pack directly, floats through exact rank compression.
    Object arrays (tuple keys) and NaN-bearing floats need the heap
    engine's comparison semantics.
    """
    if priority is None:
        return True
    arr = np.asarray(priority)
    if arr.dtype == np.bool_ or np.issubdtype(arr.dtype, np.integer):
        return True
    if np.issubdtype(arr.dtype, np.floating):
        return not bool(np.isnan(arr).any())
    return False


def frontier_keys(priority: np.ndarray | None, n_tasks: int) -> np.ndarray:
    """Dense non-negative ``int64`` keys equivalent to ``priority`` ordering.

    Preserves both relative order and equality of the original keys, so a
    schedule built on the returned keys is bit-identical to one built on
    the raw priorities.  Raises :class:`InvalidScheduleError` when the
    priorities are not supported (see :func:`frontier_supports`).
    """
    if priority is None:
        return np.zeros(n_tasks, dtype=np.int64)
    if not frontier_supports(priority):
        raise InvalidScheduleError(
            "vector engine requires numeric NaN-free priorities; "
            "use engine='heap' for non-scalar keys"
        )
    arr = np.asarray(priority)
    if arr.size == 0:
        return np.zeros(0, dtype=np.int64)
    if arr.dtype == np.bool_ or np.issubdtype(arr.dtype, np.integer):
        lo = int(arr.min())
        hi = int(arr.max())
        if hi - lo <= _DENSE_SLACK * n_tasks + 1024:
            return arr.astype(np.int64) - lo
    # Sparse integers and floats: exact rank compression.  np.unique sorts
    # and deduplicates, so equal keys share a rank and order is preserved.
    _, inverse = np.unique(arr, return_inverse=True)
    return inverse.astype(np.int64)


def _codes(
    key: np.ndarray, proc_of: np.ndarray | None, m: int
) -> tuple[np.ndarray, int, int] | None:
    """Packed codes, tid bit width, and processor shift; ``None`` on overflow.

    ``code[tid] = (proc << shift) | (key << logn) | tid`` must fit a
    signed int64 (processor bits only in assigned mode).  Wide keys are
    rank compressed first; if even the compressed key cannot fit, the
    caller falls back to the heap engine.  The ``unstable_tiebreak``
    fault stores ``n - 1 - tid`` in the tid bits; the pop decodes it
    back, so the mutated kernel still emits a *valid* schedule — just
    with every equal-priority tie-break reversed.
    """
    n_tasks = key.size
    logn = max(1, (n_tasks - 1).bit_length())
    logm = max(1, (m - 1).bit_length()) if proc_of is not None else 0
    kb = max(1, int(key.max()).bit_length()) if n_tasks else 1
    if logn + kb + logm > 62:
        _, inverse = np.unique(key, return_inverse=True)
        key = inverse.astype(np.int64)
        kb = max(1, int(key.max()).bit_length()) if n_tasks else 1
        if logn + kb + logm > 62:
            return None
    tid = np.arange(n_tasks, dtype=np.int64)
    if _MUTATION == "unstable_tiebreak":
        tid = n_tasks - 1 - tid
    code = (key << logn) | tid
    shift = logn + kb
    if proc_of is not None:
        code |= proc_of << shift
    return code, logn, shift


def frontier_schedule(
    inst: SweepInstance,
    m: int,
    priority: np.ndarray | None,
    assignment: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None] | None:
    """Run the frontier kernel; ``(start, machine)`` or ``None`` on overflow.

    With an ``assignment`` (cell → processor) each processor runs its
    smallest ready ``(key, tid)`` per step and ``machine`` is ``None``;
    without one, the ``m`` smallest ready tasks run per step (Graham
    mode) and ``machine[tid]`` is the machine each task ran on.  Callers
    go through :func:`repro.core.list_scheduler.list_schedule` /
    ``list_schedule_unassigned``, which validate shapes and fall back to
    the heap engine when this returns ``None`` (packed codes past 62
    bits).
    """
    n_tasks = inst.n_tasks
    graham = assignment is None
    proc_of = None if graham else np.tile(assignment, inst.k)
    packed = _codes(frontier_keys(priority, n_tasks), proc_of, m)
    if packed is None:
        return None
    code_of, logn, shift = packed
    tid_mask = np.int64((1 << logn) - 1)
    mut = _MUTATION
    flip = n_tasks - 1 if mut == "unstable_tiebreak" else None

    union = inst.union_dag()
    off, tgt = union.successor_csr()
    lo = off[:-1]
    deg = np.diff(off)
    indeg = union.indegree()
    frontier = np.sort(code_of[np.flatnonzero(indeg == 0)])
    start = np.full(n_tasks, -1, dtype=np.int64)
    machine = np.full(n_tasks, -1, dtype=np.int64)  # Graham mode only
    # first[i] is True iff frontier[i] is the first (= smallest) code of
    # its processor's run in the sorted frontier.
    first = np.empty(n_tasks + 1, dtype=bool)
    first[0] = True
    remaining = n_tasks
    t = 0
    supersteps = 0
    peak = 0
    while remaining:
        r = frontier.size
        if not r:
            raise InvalidScheduleError(
                "no ready task but tasks remain — instance has a cycle"
            )
        if r > peak:
            peak = r
        supersteps += 1
        if graham:
            n_exec = min(m, r)
        else:
            pp = frontier >> shift
            f = first[:r]
            np.not_equal(pp[1:], pp[:-1], out=f[1:])
        if r == remaining:
            # Endgame drain: every unexecuted task is ready, so each queue
            # just drains in (key, tid) order — batch all starts at once.
            idx = np.arange(r, dtype=np.int64)
            if not graham:
                idx -= np.maximum.accumulate(np.where(f, idx, 0))
            if mut == "drain_off_by_one":
                np.maximum(idx - 1, 0, out=idx)
            done = frontier & tid_mask
            if flip is not None:
                done = flip - done
            if graham:
                start[done] = t + idx // m
                machine[done] = idx % m
            else:
                start[done] = t + idx
            t = int(start[done].max()) + 1
            break
        if graham:
            if mut == "frontier_off_by_one" and n_exec > 1:
                n_exec -= 1
            done = frontier[:n_exec] & tid_mask
            rest = frontier[n_exec:]
        else:
            if mut == "frontier_off_by_one":
                hits = np.flatnonzero(f)
                if hits.size > 1:
                    f[hits[-1]] = False
            done = frontier[f] & tid_mask
            rest = frontier[~f]
        if flip is not None:
            done = flip - done
        start[done] = t
        if graham:
            machine[done] = np.arange(n_exec, dtype=np.int64)
        remaining -= done.size
        frontier = rest
        t += 1
        # CSR gather: the successor slices of every popped task, end to end.
        lengths = deg[done]
        ends = np.cumsum(lengths)
        if not ends[-1]:
            continue
        idx = np.repeat(lo[done] - ends + lengths, lengths)
        idx += np.arange(ends[-1], dtype=np.int64)
        succ = tgt[idx]
        if mut == "stale_indegree":
            indeg[succ] -= 1  # fancy-index assignment folds duplicates
        else:
            np.subtract.at(indeg, succ, 1)
        newly = succ[indeg[succ] == 0]
        if mut == "skip_promotion":
            newly = newly[:1]
        if newly.size:
            # A task whose predecessors finished together appears once per
            # finished predecessor: sort, then keep the first of each run.
            nc = np.sort(code_of[newly])
            keep = np.empty(nc.size, dtype=bool)
            keep[0] = True
            np.not_equal(nc[1:], nc[:-1], out=keep[1:])
            nc = nc[keep]
            frontier = np.insert(rest, np.searchsorted(rest, nc), nc)
    obs.inc("scheduler.vector.steps", t)
    obs.inc("scheduler.vector.supersteps", supersteps)
    obs.gauge_max("scheduler.vector.peak_frontier", peak)
    return start, (machine if graham else None)
