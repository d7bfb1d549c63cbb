"""Tests for the level / descendant / DFDS / FIFO heuristics."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import Dag, SweepInstance
from repro.heuristics import (
    ALGORITHMS,
    algorithm_names,
    descendant_counts_per_task,
    descendant_priority_schedule,
    dfds_priorities,
    dfds_schedule,
    fifo_schedule,
    get_algorithm,
    graham_relaxed_schedule,
    level_priority_schedule,
)
from repro.util.errors import ReproError

from .strategies import sweep_instances


class TestLevelPriority:
    def test_feasible(self, tet_instance):
        s = level_priority_schedule(tet_instance, 4, seed=0)
        s.validate()
        assert s.meta["algorithm"] == "level"

    def test_with_delays_is_algorithm2(self, tet_instance):
        """level+delays must produce exactly Algorithm 2's schedule for
        the same randomness."""
        from repro.core import random_delay_priority_schedule

        rng = np.random.default_rng(0)
        delays = rng.integers(0, tet_instance.k, size=tet_instance.k)
        assignment = rng.integers(0, 4, size=tet_instance.n_cells)
        a = level_priority_schedule(
            tet_instance, 4, assignment=assignment, with_delays=True, delays=delays
        )
        b = random_delay_priority_schedule(
            tet_instance, 4, assignment=assignment, delays=delays
        )
        assert np.array_equal(a.start, b.start)

    def test_no_delay_meta(self, chain_instance):
        s = level_priority_schedule(chain_instance, 2, seed=0)
        assert list(s.meta["delays"]) == [0, 0]


class TestDescendantPriority:
    def test_counts_per_task_match_dags(self, chain_instance):
        counts = descendant_counts_per_task(chain_instance)
        assert list(counts[:4]) == [3, 2, 1, 0]
        assert list(counts[4:]) == [0, 1, 2, 3]

    def test_feasible(self, tet_instance):
        s = descendant_priority_schedule(tet_instance, 4, seed=0)
        s.validate()

    def test_with_delays_feasible(self, tet_instance):
        s = descendant_priority_schedule(tet_instance, 4, seed=0, with_delays=True)
        s.validate()
        assert s.meta["algorithm"] == "descendant_delays"

    def test_many_descendants_run_first_on_one_proc(self):
        """On 1 processor with no precedence among some tasks, the task
        with the most descendants runs first."""
        g = Dag.from_edge_list(3, [(0, 2)])  # 0 has 1 descendant, 1 has 0
        inst = SweepInstance(3, [g])
        s = descendant_priority_schedule(
            inst, 1, assignment=np.zeros(3, dtype=int), seed=0
        )
        assert s.start[0] < s.start[1]


class TestDFDS:
    def test_priorities_hand_example(self):
        """Chain 0->1->2 split across two processors at the 1|2 boundary.

        b-levels: [3, 2, 1]; K = num_levels = 3.
        Task 1 has an off-processor child (2): priority = b(2) + K = 4.
        Task 0 has no off-proc children, child priority 4: priority 3.
        Task 2 is a leaf with no off-proc descendants: priority 0.
        """
        g = Dag.from_edge_list(3, [(0, 1), (1, 2)])
        inst = SweepInstance(3, [g])
        pr = dfds_priorities(inst, np.array([0, 0, 1]))
        assert list(pr) == [3, 4, 0]

    def test_priorities_zero_when_no_cross_edges(self):
        g = Dag.from_edge_list(3, [(0, 1), (1, 2)])
        inst = SweepInstance(3, [g])
        pr = dfds_priorities(inst, np.zeros(3, dtype=int))
        assert list(pr) == [0, 0, 0]

    def test_feasible(self, tet_instance):
        s = dfds_schedule(tet_instance, 4, seed=0)
        s.validate()
        assert s.meta["algorithm"] == "dfds"

    def test_with_delays_feasible(self, tet_instance):
        s = dfds_schedule(tet_instance, 4, seed=0, with_delays=True)
        s.validate()

    def test_off_proc_feeder_prioritised(self):
        """A root feeding another processor beats a root feeding no one."""
        # Direction DAG: 0 -> 1 (cross-proc), 2 isolated; all on proc 0
        # except cell 1.
        g = Dag.from_edge_list(3, [(0, 1)])
        inst = SweepInstance(3, [g])
        assignment = np.array([0, 1, 0])
        s = dfds_schedule(inst, 2, assignment=assignment, seed=0)
        assert s.start[0] < s.start[2]


class TestBaselines:
    def test_fifo_feasible(self, tet_instance):
        s = fifo_schedule(tet_instance, 4, seed=0)
        s.validate()
        assert s.meta["algorithm"] == "fifo"

    def test_graham_relaxed_width(self, tet_instance):
        r = graham_relaxed_schedule(tet_instance, 4)
        assert np.bincount(r.start).max() <= 4


class TestRegistry:
    def test_all_names_resolve(self):
        for name in algorithm_names():
            assert callable(get_algorithm(name))

    def test_unknown_name_raises_with_hint(self):
        with pytest.raises(ReproError, match="known:"):
            get_algorithm("nope")

    def test_registry_covers_paper_algorithms(self):
        for required in (
            "random_delay",
            "random_delay_priority",
            "improved_random_delay",
            "level",
            "descendant",
            "dfds",
        ):
            assert required in ALGORITHMS

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_every_algorithm_feasible_on_mesh(self, tet_instance, name):
        s = ALGORITHMS[name](tet_instance, 8, seed=0)
        s.validate()
        assert s.makespan >= 1

    @given(sweep_instances(max_n=10, max_k=3))
    @settings(max_examples=10, deadline=None)
    def test_all_algorithms_feasible_on_random_instances(self, inst):
        for name in ALGORITHMS:
            s = ALGORITHMS[name](inst, 2, seed=0)
            s.validate()
