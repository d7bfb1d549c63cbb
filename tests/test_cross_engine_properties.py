"""Cross-engine consistency properties.

The repository has three independent ways to evaluate a schedule's
quality (the standard engine, the timed engine, the exact oracle) and
two independent feasibility oracles (the validator, the transport
sweep).  These properties tie them together on random instances — the
strongest internal-consistency net the library can cast.  The last
class closes the net over the list-scheduling engine
implementations (heap, vector): identical makespans,
assignments, and CRC-32 start checksums on hypothesis-random instances.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import gantt_text
from repro.core import (
    latency_list_schedule,
    list_schedule,
    list_schedule_unassigned,
    optimal_makespan_for_assignment,
)

from .strategies import sweep_instances


class TestTimedVsExactOracle:
    @given(sweep_instances(max_n=5, max_k=2))
    @settings(max_examples=15, deadline=None)
    def test_timed_engine_never_beats_opt_for_assignment(self, inst):
        m = 2
        assignment = np.arange(inst.n_cells) % m
        opt = optimal_makespan_for_assignment(inst, m, assignment)
        timed = latency_list_schedule(inst, m, assignment, comm_latency=0)
        assert timed.makespan >= opt

    @given(sweep_instances(max_n=5, max_k=2))
    @settings(max_examples=15, deadline=None)
    def test_standard_engine_never_beats_opt_for_assignment(self, inst):
        m = 2
        assignment = np.arange(inst.n_cells) % m
        opt = optimal_makespan_for_assignment(inst, m, assignment)
        std = list_schedule(inst, m, assignment)
        assert std.makespan >= opt

    @given(sweep_instances(max_n=10, max_k=3))
    @settings(max_examples=20, deadline=None)
    def test_engines_agree_under_unique_priorities(self, inst):
        m = 2
        assignment = np.arange(inst.n_cells) % m
        prio = np.arange(inst.n_tasks)
        a = list_schedule(inst, m, assignment, priority=prio)
        b = latency_list_schedule(inst, m, assignment, priority=prio)
        assert np.array_equal(a.start, b.start)


class TestTimedGantt:
    def test_durations_fill_intervals(self, chain_instance):
        s = latency_list_schedule(
            chain_instance,
            2,
            np.array([0, 0, 1, 1]),
            task_cost=np.full(8, 2, dtype=np.int64),
        )
        text = gantt_text(s, max_steps=40, max_procs=2)
        # Every executed step shows a direction digit twice per task;
        # total digit cells across both rows = busy processor-steps.
        digit_cells = sum(
            ch.isdigit() for line in text.splitlines() for ch in line[5:]
        )
        busy = int(s.duration.sum())
        assert digit_cells == min(busy, 2 * 40)

    def test_latency_gaps_show_as_idle(self):
        from repro.core import Dag, SweepInstance

        g = Dag.from_edge_list(2, [(0, 1)])
        inst = SweepInstance(2, [g])
        s = latency_list_schedule(inst, 2, np.array([0, 1]), comm_latency=4)
        text = gantt_text(s, max_steps=10, max_procs=2)
        lines = text.splitlines()
        # Proc 1 idles 5 steps (task 0 runs 1, then 4 latency) then runs.
        assert lines[1].startswith("P1   .....0")


class TestThreeEngineChecksums:
    """heap == vector, summarised three independent ways.

    The equivalence suite compares start arrays elementwise; these
    properties pin the *derived* quantities every consumer actually
    reads — makespan, the echoed assignment, and the CRC-32 start
    checksum the bench report commits — across both engines on
    hypothesis-random instances, assigned and unassigned mode alike.
    """

    ENGINES = ("heap", "vector")

    @staticmethod
    def _crc(arr):
        return zlib.crc32(
            np.ascontiguousarray(arr, dtype=np.int64).tobytes()
        )

    @given(
        sweep_instances(max_n=12, max_k=3),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_assigned_mode_summaries_agree(self, inst, m, seed):
        from repro.util.rng import as_rng

        rng = as_rng(seed)
        assignment = rng.integers(0, m, inst.n_cells)
        prio = rng.integers(-4, 4, inst.n_tasks)
        results = {
            engine: list_schedule(
                inst, m, assignment, priority=prio, engine=engine
            )
            for engine in self.ENGINES
        }
        ref = results["heap"]
        for engine, got in results.items():
            assert got.makespan == ref.makespan, engine
            assert np.array_equal(got.assignment, ref.assignment), engine
            assert self._crc(got.start) == self._crc(ref.start), engine

    @given(
        sweep_instances(max_n=12, max_k=3),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_unassigned_mode_summaries_agree(self, inst, m, seed):
        from repro.util.rng import as_rng

        rng = as_rng(seed)
        prio = rng.integers(-4, 4, inst.n_tasks)
        results = {
            engine: list_schedule_unassigned(
                inst, m, priority=prio, engine=engine
            )
            for engine in self.ENGINES
        }
        ref = results["heap"]
        for engine, got in results.items():
            assert got.makespan == ref.makespan, engine
            assert self._crc(got.start) == self._crc(ref.start), engine
            assert self._crc(got.machine) == self._crc(ref.machine), engine
