"""Mutation-kill tests for the frontier scheduling kernel.

Same philosophy as :mod:`tests.test_validator_mutations`: each seeded
fault in :mod:`repro.core.vector_scheduler` must be *killed* (detected)
by at least one case in this file, and each case documents exactly which
fault it targets and why (or whether) the other faults slip through it.
A fault that every case survives would mean the equivalence suite's
coverage has a hole exactly where the kernel's bookkeeping is subtlest.

The five faults (``vector_scheduler._MUTATION``) target the kernel's
moving parts — pop cut, in-degree decrement, packed-code tie-break,
promotion, and endgame drain.  Arming a fault leaves the drain on, so
every case runs the same code path production does: the loop until the
frontier holds every remaining task, then the drain.

* ``"frontier_off_by_one"`` — the pop mask loses its last processor (its
  last ``min(m, r)``-th task in Graham mode) whenever a superstep pops
  more than one task.
* ``"stale_indegree"`` — the ``np.subtract.at`` decrement becomes a
  fancy-index ``-=``, which folds duplicate targets: a task whose
  predecessors finish in the same superstep keeps a positive in-degree
  forever.
* ``"unstable_tiebreak"`` — the task-id component of the packed code is
  inverted (symmetrically, so decode still works): every equal-priority
  tie now breaks toward the *higher* id.
* ``"skip_promotion"`` — only the first newly-ready task of a superstep
  is merged into the frontier; the rest are lost.
* ``"drain_off_by_one"`` — the endgame drain's per-queue rank lags one
  slot from the queue's second task on, so a queue's first two tasks
  share a step.
"""

import numpy as np
import pytest

import repro.core.vector_scheduler as vs
from repro.core.dag import Dag
from repro.core.instance import SweepInstance
from repro.core.list_scheduler import list_schedule, list_schedule_unassigned
from repro.util.errors import InvalidScheduleError

VECTOR_MUTATIONS = (
    "frontier_off_by_one",
    "stale_indegree",
    "unstable_tiebreak",
    "skip_promotion",
    "drain_off_by_one",
)


def vrun(inst, m, assignment, prio, mutation=None, monkeypatch=None):
    if mutation is not None:
        monkeypatch.setattr(vs, "_MUTATION", mutation)
    try:
        return list_schedule(
            inst, m, np.asarray(assignment, dtype=np.int64),
            priority=np.asarray(prio), engine="vector",
        )
    finally:
        if mutation is not None:
            monkeypatch.setattr(vs, "_MUTATION", None)


def _inst(n, edges):
    return SweepInstance(n, [Dag.from_edge_list(n, edges)])


def vcase_frontier_off_by_one():
    """Kills ``frontier_off_by_one``.

    a(0) -> c(2) with a, c on processor 0 and a free b(1) on processor 1,
    uniform priorities: production pops a and b at step 0 and drains c
    at step 1.  The fault clears b's pop, so b slips to step 1.  The
    others survive: c is promoted alone and without duplicates
    (``stale_indegree``, ``skip_promotion``), every processor run is a
    singleton (``unstable_tiebreak``), and the final drain holds one task
    (``drain_off_by_one``).
    """
    return _inst(3, [(0, 2)]), 2, [0, 1, 0], [0, 0, 0], np.array([0, 0, 1])


def vcase_stale_indegree():
    """Kills ``stale_indegree``.

    a(0) -> z(2) and b(1) -> z(2) with a, b on different processors:
    both predecessors complete in the same superstep, so the gathered
    successor batch is ``[z, z]`` and the correct decrement is 2.  The
    fault subtracts 1, z's in-degree never reaches zero, and the kernel
    must report the false cycle.  ``unstable_tiebreak`` survives (each
    processor run is a singleton), ``skip_promotion`` survives (the
    newly-ready batch is ``[z, z]``, one task), ``drain_off_by_one``
    survives (z drains alone).  ``frontier_off_by_one`` does NOT
    survive — it drops b's step-0 pop, serialising the predecessors —
    which is the price of a fault that perturbs *every* multi-pop
    superstep; the cell below records the honest outcome.
    """
    return (
        _inst(3, [(0, 2), (1, 2)]), 2, [0, 1, 0], [0, 0, 0],
        np.array([0, 0, 1]),
    )


def vcase_unstable_tiebreak():
    """Kills ``unstable_tiebreak``.

    Free a(0) and b(1) tied at priority 0 on processor 0, b -> c(2) on
    processor 1: id order runs a, then b, then drains c — starts
    ``[0, 1, 2]``.  The inverted codes run b first, promoting c early.
    The other faults survive: one processor run per superstep means the
    off-by-one cut never fires, promotions are single and duplicate-free,
    and c drains alone.
    """
    return _inst(3, [(1, 2)]), 2, [0, 0, 1], [0, 0, 0], np.array([0, 1, 2])


def vcase_skip_promotion():
    """Kills ``skip_promotion``.

    a(0) -> b(1) and a(0) -> c(2), b on processor 0 with a, c on
    processor 1: a's completion promotes the batch ``[b, c]`` and the
    fault drops c, which is then never ready — the kernel must report
    the false cycle.  The others survive: step 0 pops one task, the
    gathered batch has no duplicates, and b and c drain as singletons on
    their own processors.
    """
    return (
        _inst(3, [(0, 1), (0, 2)]), 2, [0, 0, 1], [0, 0, 0],
        np.array([0, 1, 1]),
    )


def vcase_drain_off_by_one():
    """Kills ``drain_off_by_one``.

    Two free tasks with priorities 0 and 1 on one processor: the whole
    instance is one drain whose queue ranks are ``[0, 1]``; the fault
    ranks both 0.  The others survive: there is no loop superstep, no
    edge, and no tie to break.
    """
    return _inst(2, []), 1, [0, 0], [0, 1], np.array([0, 1])


VECTOR_CASES = {
    "frontier_off_by_one": vcase_frontier_off_by_one,
    "stale_indegree": vcase_stale_indegree,
    "unstable_tiebreak": vcase_unstable_tiebreak,
    "skip_promotion": vcase_skip_promotion,
    "drain_off_by_one": vcase_drain_off_by_one,
}

#: What each (case, mutation) pair must do.  ``"correct"`` = survives
#: (bit-identical to production), anything else = the kill signature.
VECTOR_KILL_MATRIX = {
    (case, mutation): "correct"
    for case in VECTOR_CASES
    for mutation in VECTOR_MUTATIONS
}
VECTOR_KILL_MATRIX.update({
    ("frontier_off_by_one", "frontier_off_by_one"): "wrong_schedule",
    ("stale_indegree", "frontier_off_by_one"): "wrong_schedule",
    ("stale_indegree", "stale_indegree"): "false_cycle",
    ("unstable_tiebreak", "unstable_tiebreak"): "wrong_schedule",
    ("skip_promotion", "skip_promotion"): "false_cycle",
    ("drain_off_by_one", "drain_off_by_one"): "wrong_schedule",
})


class TestVectorProductionBaseline:
    """Unmutated kernel: correct result, identical to the heap."""

    @pytest.mark.parametrize("case", sorted(VECTOR_CASES))
    def test_vector_matches_expected_and_heap(self, case):
        inst, m, assignment, prio, expected_start = VECTOR_CASES[case]()
        got = vrun(inst, m, assignment, prio)
        assert np.array_equal(got.start, expected_start)
        ref = list_schedule(
            inst, m, np.asarray(assignment, dtype=np.int64),
            priority=np.asarray(prio), engine="heap",
        )
        assert np.array_equal(got.start, ref.start)

    def test_armed_fault_keeps_endgame_drain(self, monkeypatch):
        """An armed fault must not change the code path: the kill cases
        test the kernel production runs, drain included.  Pinned through
        the superstep metric: the drain finishes the two-task
        single-processor case in one superstep, with or without a fault.
        """
        from repro import obs

        inst, m, assignment, prio, _ = vcase_drain_off_by_one()
        was_on = obs.tracing_enabled()
        obs.enable_tracing()
        obs.reset()
        try:
            vrun(inst, m, assignment, prio)
            drained = obs.drain_metrics()["counters"]
            assert drained.get("scheduler.vector.supersteps") == 1
            vrun(inst, m, assignment, prio, "stale_indegree", monkeypatch)
            armed = obs.drain_metrics()["counters"]
            assert armed.get("scheduler.vector.supersteps") == 1
        finally:
            obs.reset()
            if not was_on:
                obs.disable_tracing()


class TestVectorKillMatrix:
    @pytest.mark.parametrize("case", sorted(VECTOR_CASES))
    @pytest.mark.parametrize("mutation", VECTOR_MUTATIONS)
    def test_cell(self, case, mutation, monkeypatch):
        inst, m, assignment, prio, expected_start = VECTOR_CASES[case]()
        outcome = VECTOR_KILL_MATRIX[(case, mutation)]
        if outcome == "correct":
            got = vrun(inst, m, assignment, prio, mutation, monkeypatch)
            assert np.array_equal(got.start, expected_start), (
                f"{mutation} unexpectedly changed the {case} schedule"
            )
        elif outcome == "wrong_schedule":
            got = vrun(inst, m, assignment, prio, mutation, monkeypatch)
            assert not np.array_equal(got.start, expected_start), (
                f"{case} failed to kill {mutation}"
            )
        elif outcome == "false_cycle":
            with pytest.raises(InvalidScheduleError, match="cycle"):
                vrun(inst, m, assignment, prio, mutation, monkeypatch)
        else:  # pragma: no cover - matrix typo guard
            raise AssertionError(f"unknown outcome {outcome!r}")

    def test_unassigned_mode_kills(self, monkeypatch):
        """Graham mode exercises every fault through its own pop cut,
        machine numbering, and drain.

        * a(0) -> c(2), b(1) free, m=2: production runs a, b at step 0 on
          machines 0, 1 and drains c at step 1.  The off-by-one cut pops
          only a; the inverted tie-break hands machine 0 to b.
        * a(0) -> b(1), a(0) -> c(2), m=2: skipping c's promotion leaves
          it never ready (false cycle); the fancy-index decrement folds
          the duplicate edges of a(0) -> z(2), b(1) -> z(2).
        * three free tasks, m=2: the drain runs ``[0, 0, 1]`` on machines
          ``[0, 1, 0]``; the lagging rank puts the first two on
          machine 0 at step 0.
        """

        def urun(inst, mutation=None):
            if mutation is not None:
                monkeypatch.setattr(vs, "_MUTATION", mutation)
            try:
                return list_schedule_unassigned(
                    inst, 2, priority=np.zeros(inst.n_tasks, dtype=np.int64),
                    engine="vector",
                )
            finally:
                if mutation is not None:
                    monkeypatch.setattr(vs, "_MUTATION", None)

        pop = _inst(3, [(0, 2)])
        base = urun(pop)
        assert np.array_equal(base.start, [0, 0, 1])
        assert np.array_equal(base.machine, [0, 1, 0])
        off = urun(pop, "frontier_off_by_one")
        assert not np.array_equal(off.start, base.start)
        tie = urun(pop, "unstable_tiebreak")
        assert not np.array_equal(tie.machine, base.machine)
        for survivor in ("stale_indegree", "skip_promotion", "drain_off_by_one"):
            got = urun(pop, survivor)
            assert np.array_equal(got.start, base.start), survivor
            assert np.array_equal(got.machine, base.machine), survivor

        with pytest.raises(InvalidScheduleError, match="cycle"):
            urun(_inst(3, [(0, 1), (0, 2)]), "skip_promotion")
        with pytest.raises(InvalidScheduleError, match="cycle"):
            urun(_inst(3, [(0, 2), (1, 2)]), "stale_indegree")

        free = _inst(3, [])
        drained = urun(free)
        assert np.array_equal(drained.start, [0, 0, 1])
        assert np.array_equal(drained.machine, [0, 1, 0])
        lagged = urun(free, "drain_off_by_one")
        assert not np.array_equal(lagged.machine, drained.machine)

    def test_every_vector_mutation_is_killed(self):
        """Census: each fault has at least one non-surviving cell."""
        for mutation in VECTOR_MUTATIONS:
            kills = [
                case
                for case in VECTOR_CASES
                if VECTOR_KILL_MATRIX[(case, mutation)] != "correct"
            ]
            assert kills, f"no case kills {mutation}"
