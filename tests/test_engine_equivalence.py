"""Cross-engine equivalence: heap vs vector, bit for bit.

The headline guarantee of the frontier kernel
(:mod:`repro.core.vector_scheduler`) is that it is a pure optimisation:
same start times, same machine numbers, same tie-breaks, same errors as
the heap engine, on every input.  This suite pins that guarantee on

* every fuzz spec family (:data:`repro.fuzz.spec.CASE_FAMILIES`),
* every registry golden case x every registry algorithm,
* every persisted fuzz-corpus entry,
* random hypothesis instances,

always forcing ``engine="vector"`` so the ``auto`` width rule can never
hide a broken kernel on narrow inputs.  Start arrays are compared both
elementwise and by CRC-32 checksum — the same digest the bench report
commits — so a checksum scheme that ever diverged from the arrays would
be caught here first.

The priority-property tests at the bottom cover the tie-break contract
itself: ``priority=None`` is the all-zeros priority, schedules depend
only on the *relative order* of priorities, and permuting equal-priority
task ids leaves every engine deterministic, mutually identical, and
oracle-clean.
"""

import json
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assignment import random_cell_assignment
from repro.core.list_scheduler import list_schedule, list_schedule_unassigned
from repro.core.random_delay import delayed_task_layers, draw_delays
from repro.fuzz.corpus import iter_corpus, load_entry, replay_entry
from repro.fuzz.spec import CASE_FAMILIES, build_case
from repro.heuristics import algorithm_names, get_algorithm
from repro.util.rng import as_rng

from .strategies import sweep_instances

def start_checksum(schedule):
    """The bench report's schedule digest: CRC-32 of the start array."""
    start = np.ascontiguousarray(schedule.start, dtype=np.int64)
    return zlib.crc32(start.tobytes())


def assert_engines_match(inst, m, assignment, priority, label=""):
    """Heap vs vector, assigned and unassigned.

    Asserts identical start arrays, assignments, machine numbers,
    makespans, and CRC-32 start checksums.
    """
    ref = list_schedule(inst, m, assignment, priority=priority, engine="heap")
    uref = list_schedule_unassigned(inst, m, priority=priority, engine="heap")
    got = list_schedule(inst, m, assignment, priority=priority, engine="vector")
    ugot = list_schedule_unassigned(inst, m, priority=priority, engine="vector")
    assert np.array_equal(got.start, ref.start), f"{label} start"
    assert np.array_equal(got.assignment, ref.assignment), f"{label} assignment"
    assert got.makespan == ref.makespan, f"{label} makespan"
    assert start_checksum(got) == start_checksum(ref), f"{label} checksum"
    assert np.array_equal(ugot.start, uref.start), f"{label} unassigned start"
    assert np.array_equal(ugot.machine, uref.machine), f"{label} machine"


def case_priorities(inst, seed):
    """The priority flavours every case is checked under."""
    rng = as_rng(seed)
    gamma = delayed_task_layers(inst, draw_delays(inst.k, rng))
    yield "uniform", None
    yield "delayed-level", gamma
    yield "float", rng.random(inst.n_tasks)
    yield "negative", rng.integers(-8, 8, inst.n_tasks)


class TestFuzzFamilies:
    @pytest.mark.parametrize("family", sorted(CASE_FAMILIES))
    @pytest.mark.parametrize("seed,m", [(0, 1), (1, 3), (2, 7)])
    def test_family_bit_identical(self, family, seed, m):
        inst, m = build_case(
            {"family": family, "seed": seed, "m": m, "params": {}}
        )
        rng = as_rng(seed)
        assignment = random_cell_assignment(inst.n_cells, m, rng)
        for pname, prio in case_priorities(inst, seed):
            assert_engines_match(
                inst, m, assignment, prio, label=f"{family}/{pname}"
            )


class TestRegistryGoldens:
    @pytest.fixture(scope="class")
    def golden_cases(self):
        import sys
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        if str(root / "scripts") not in sys.path:
            sys.path.insert(0, str(root / "scripts"))
        from regenerate_goldens import GOLDEN_CASES

        from repro.instances import make_instance

        return [
            (label, make_instance(family, **params), m)
            for label, family, params, m in GOLDEN_CASES
        ]

    @pytest.mark.parametrize("algorithm", algorithm_names())
    def test_golden_cases_bit_identical(self, golden_cases, algorithm):
        fn = get_algorithm(algorithm)
        for label, inst, m in golden_cases:
            ref = fn(inst, m, seed=0, engine="heap")
            got = fn(inst, m, seed=0, engine="vector")
            assert np.array_equal(got.start, ref.start), f"{label}/{algorithm}"
            assert got.makespan == ref.makespan
            assert start_checksum(got) == start_checksum(ref)


class TestCorpus:
    def test_corpus_replays_engine_clean(self):
        entries = iter_corpus("corpus")
        for path in entries:
            entry = load_entry(path)
            result = replay_entry(entry)
            engine_violations = [
                v for v in result.violations if v.oracle == "engine_equivalence"
            ]
            assert not engine_violations, (
                f"{path.name}: {[str(v) for v in engine_violations]}"
            )

    def test_corpus_entries_are_wellformed_json(self):
        for path in iter_corpus("corpus"):
            json.loads(path.read_text())


class TestHypothesisEquivalence:
    @given(
        sweep_instances(max_n=14, max_k=3),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_instances_bit_identical(self, inst, m, seed):
        rng = as_rng(seed)
        assignment = random_cell_assignment(inst.n_cells, m, rng)
        for pname, prio in case_priorities(inst, seed):
            assert_engines_match(inst, m, assignment, prio, label=pname)


class TestPriorityProperties:
    """Satellite: tie-break determinism pinned for every engine."""

    ENGINES = ("heap", "vector")

    @given(sweep_instances(max_n=12, max_k=3))
    @settings(max_examples=25, deadline=None)
    def test_none_equals_zeros(self, inst):
        m = 3
        assignment = np.arange(inst.n_cells) % m
        zeros = np.zeros(inst.n_tasks, dtype=np.int64)
        for engine in self.ENGINES:
            a = list_schedule(inst, m, assignment, priority=None,
                              engine=engine)
            b = list_schedule(inst, m, assignment, priority=zeros,
                              engine=engine)
            ua = list_schedule_unassigned(inst, m, priority=None,
                                          engine=engine)
            ub = list_schedule_unassigned(inst, m, priority=zeros,
                                          engine=engine)
            assert np.array_equal(a.start, b.start), engine
            assert np.array_equal(ua.start, ub.start), engine
            assert np.array_equal(ua.machine, ub.machine), engine

    @given(
        sweep_instances(max_n=12, max_k=3),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_order_preserving_transforms_do_not_matter(self, inst, seed):
        """Only the relative order of priorities affects the schedule."""
        m = 3
        rng = as_rng(seed)
        assignment = np.arange(inst.n_cells) % m
        prio = rng.integers(0, 5, inst.n_tasks)
        scaled = prio * 1000 - 7
        for engine in self.ENGINES:
            a = list_schedule(inst, m, assignment, priority=prio,
                              engine=engine)
            b = list_schedule(inst, m, assignment, priority=scaled,
                              engine=engine)
            assert np.array_equal(a.start, b.start), engine

    @given(
        sweep_instances(max_n=10, max_k=3),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_equal_priority_permutation_keeps_oracles(self, inst, seed):
        """Permuting equal-priority task ids: engines stay deterministic,
        mutually bit-identical, and the resulting schedule passes the full
        makespan-oracle pack on both the original and permuted labelling.
        """
        from repro.fuzz.oracles import OracleContext, check_schedule

        m = 2
        rng = as_rng(seed)
        # Permute cell ids (equal-priority: priorities are uniform).
        perm = rng.permutation(inst.n_cells)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(inst.n_cells)
        permuted = type(inst)(
            inst.n_cells,
            [type(g)(g.n, inv[g.edges] if g.num_edges else g.edges)
             for g in inst.dags],
        )
        for variant, vinst in (("original", inst), ("permuted", permuted)):
            assignment = np.arange(vinst.n_cells) % m
            ref = list_schedule(vinst, m, assignment, priority=None,
                                engine="heap")
            again = list_schedule(vinst, m, assignment, priority=None,
                                  engine="heap")
            assert np.array_equal(ref.start, again.start), variant
            got = list_schedule(vinst, m, assignment, priority=None,
                                engine="vector")
            assert np.array_equal(got.start, ref.start), variant
            ctx = OracleContext(vinst, m)
            violations = check_schedule(ref, algorithm="fifo", ctx=ctx)
            assert not violations, (variant, [str(v) for v in violations])


class TestAutoRule:
    def test_auto_width_rule(self):
        """One width rule: the frontier kernel once ``min(processors
        holding a task, n_tasks // union levels)`` reaches
        ``_FRONTIER_MIN_WIDTH``, the heap below it.
        """
        from repro.core.list_scheduler import _FRONTIER_MIN_WIDTH, resolve_engine
        from repro.instances.families import identical_chains, wide_shallow

        narrow = identical_chains(64, 2)
        assert resolve_engine("auto", None, narrow, 4) == "heap"
        wide = wide_shallow(1000, 2, seed=0)
        assert wide.n_tasks // wide.union_dag().num_levels() >= 512
        assert resolve_engine("auto", None, wide, 512) == "vector"
        # The processor count caps the width: m below the threshold
        # keeps the heap however wide the wavefront.
        assert resolve_engine("auto", None, wide, _FRONTIER_MIN_WIDTH - 1) == "heap"
        assert resolve_engine("auto", None, wide, _FRONTIER_MIN_WIDTH) == "vector"
        # Unsupported keys force the heap even on very wide instances.
        obj = np.empty(wide.n_tasks, dtype=object)
        obj[:] = [(0, i) for i in range(wide.n_tasks)]
        assert resolve_engine("auto", obj, wide, 512) == "heap"

    def test_auto_counts_processors_holding_tasks(self):
        """Routing reads the assignment: on the 4000-cell tetonly mesh a
        64-cell-block assignment leaves most of m=128 processors empty,
        so the heap runs; a random cell assignment at m=512 fills them
        and the frontier kernel runs.  Graham mode counts all ``m``.
        """
        from repro.core.assignment import block_assignment
        from repro.core.list_scheduler import resolve_engine
        from repro.mesh import make_mesh
        from repro.partition import partition_mesh_blocks
        from repro.sweeps.dag_builder import build_instance
        from repro.sweeps.directions import directions_for_mesh

        mesh = make_mesh("tetonly", target_cells=4000, seed=0)
        inst = build_instance(mesh, directions_for_mesh(3, 8))
        blocks = partition_mesh_blocks(mesh.n_cells, mesh.adjacency, 64, seed=0)
        blocked = block_assignment(blocks, 128, seed=0)
        assert np.unique(blocked).size < 64
        assert resolve_engine("auto", None, inst, 128, blocked) == "heap"
        assert resolve_engine("auto", None, inst, 128) == "vector"
        spread = random_cell_assignment(inst.n_cells, 512, as_rng(0))
        assert resolve_engine("auto", None, inst, 512, spread) == "vector"

    def test_route_counter_and_span_width(self):
        """Each auto decision is a ``scheduler.route.*`` counter and the
        measured width rides on the schedule span; explicit engines are
        not routing decisions and count nothing.
        """
        from repro import obs
        from repro.instances.families import identical_chains, wide_shallow

        was_on = obs.tracing_enabled()
        obs.enable_tracing()
        obs.reset()
        try:
            wide = wide_shallow(1000, 2, seed=0)
            narrow = identical_chains(64, 2)
            list_schedule(wide, 128, np.arange(wide.n_cells) % 128)
            list_schedule_unassigned(narrow, 4)
            list_schedule(narrow, 4, np.zeros(narrow.n_cells), engine="heap")
            counters = obs.drain_metrics()["counters"]
            assert counters.get("scheduler.route.vector") == 1
            assert counters.get("scheduler.route.heap") == 1
            spans = {s.name: s.args for s in obs.drain_spans()}
            assert spans["schedule.vector"]["width"] == 128
            assert spans["schedule.heap_unassigned"]["width"] == 2
            assert spans["schedule.heap"]["width"] is None
        finally:
            obs.reset()
            if not was_on:
                obs.disable_tracing()

    @pytest.mark.parametrize("engine", ["vector"])
    def test_explicit_engine_ignores_width(self, engine):
        from repro.core.list_scheduler import resolve_engine
        from repro.instances.families import identical_chains

        narrow = identical_chains(64, 2)
        assert resolve_engine(engine, None, narrow, 4) == engine

    @pytest.mark.parametrize("engine", ["vector"])
    def test_explicit_engine_rejects_object_keys(self, engine):
        from repro.core.list_scheduler import resolve_engine
        from repro.instances.families import identical_chains
        from repro.util.errors import InvalidScheduleError

        narrow = identical_chains(8, 2)
        obj = np.empty(narrow.n_tasks, dtype=object)
        obj[:] = [(0, i) for i in range(narrow.n_tasks)]
        with pytest.raises(InvalidScheduleError, match="NaN-free"):
            resolve_engine(engine, obj, narrow, 4)

    def test_unknown_engine_rejected(self):
        from repro.core.list_scheduler import resolve_engine
        from repro.util.errors import InvalidScheduleError

        with pytest.raises(InvalidScheduleError, match="unknown engine"):
            resolve_engine("quantum", None)
