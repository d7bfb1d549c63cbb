"""The reverse-level priority layer against its per-vertex oracles.

:meth:`Dag.b_levels`, :meth:`Dag.descendant_counts` and
:func:`repro.heuristics.dfds_priorities` run one ``ufunc.reduceat`` per
level over :meth:`Dag.reverse_level_layout`.  The oracles below are the
per-vertex reverse-topological loops those functions used to be: one
numpy slice (b-levels, bitset reachability) or one Python step (DFDS)
per vertex.  Every case here compares the two bit for bit.

Two seeded faults must be *killed* by this battery:

* ``dag._MUTATION = "level_off_by_one"`` — every level boundary of the
  layout slips by one parent, so each level's first parent is reduced
  together with the level below it, before its children are final;
* ``dfds._MUTATION = "dropped_clamp"`` — the DFDS ``max(child) - 1``
  propagation loses its clamp at 0.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.dag as dag_mod
import repro.heuristics.dfds as dfds_mod
from repro.core.dag import DESC_CHUNK_BITS, Dag, _popcount_rows
from repro.core.instance import SweepInstance
from repro.heuristics import (
    blevel_priorities,
    descendant_counts_per_task,
    dfds_priorities,
)
from repro.instances import INSTANCE_FAMILIES, make_instance
from tests.strategies import sweep_instances

# ----------------------------------------------------------------------
# oracles: the per-vertex loops the reverse-level reductions replaced
# ----------------------------------------------------------------------


def oracle_b_levels(g: Dag) -> np.ndarray:
    b = np.ones(g.n, dtype=np.int64)
    off, tgt = g.successor_csr()
    for v in g.topological_order()[::-1]:
        s = tgt[off[v] : off[v + 1]]
        if s.size:
            b[v] = 1 + b[s].max()
    return b


def oracle_descendant_counts(g: Dag) -> np.ndarray:
    words = (g.n + 63) // 64
    reach = np.zeros((g.n, words), dtype=np.uint64)
    off, tgt = g.successor_csr()
    word_idx = np.arange(g.n) >> 6
    bit = np.uint64(1) << (np.arange(g.n, dtype=np.uint64) & np.uint64(63))
    for v in g.topological_order()[::-1]:
        s = tgt[off[v] : off[v + 1]]
        if s.size:
            row = reach[v]
            np.bitwise_or.reduce(reach[s], axis=0, out=row)
            np.bitwise_or.at(row, word_idx[s], bit[s])
    return _popcount_rows(reach)


def oracle_dfds(inst: SweepInstance, assignment: np.ndarray) -> np.ndarray:
    n = inst.n_cells
    proc = np.asarray(assignment).tolist()
    out = np.zeros(inst.n_tasks, dtype=np.int64)
    for i, g in enumerate(inst.dags):
        b = oracle_b_levels(g).tolist()
        K = max(g.num_levels(), 1)
        off, tgt = (a.tolist() for a in g.successor_csr())
        pr = [0] * n
        for v in g.topological_order().tolist()[::-1]:
            children = tgt[off[v] : off[v + 1]]
            if not children:
                continue
            if any(proc[c] != proc[v] for c in children):
                pr[v] = max(b[c] for c in children) + K
            else:
                best = max(pr[c] for c in children)
                pr[v] = best - 1 if best > 0 else 0
        out[i * n : (i + 1) * n] = pr
    return out


def fresh(inst: SweepInstance) -> SweepInstance:
    """The same DAGs with every memo cache dropped."""
    return SweepInstance(
        inst.n_cells, [Dag(g.n, g.edges, validate=False) for g in inst.dags]
    )


def mismatches(inst: SweepInstance, assignment: np.ndarray) -> list[str]:
    """Names of the reductions that disagree with their oracle on ``inst``
    (computed on a cache-free copy, so an armed mutation takes effect)."""
    got = fresh(inst)
    ref = fresh(inst)
    bad = []
    n = inst.n_cells
    want_b = np.concatenate([oracle_b_levels(g) for g in ref.dags])
    if not np.array_equal(blevel_priorities(got), want_b):
        bad.append("union b_levels")
    for i, g in enumerate(got.dags):
        if not np.array_equal(g.b_levels(), want_b[i * n : (i + 1) * n]):
            bad.append(f"b_levels[{i}]")
            break
    want_d = np.concatenate([oracle_descendant_counts(g) for g in ref.dags])
    if not np.array_equal(descendant_counts_per_task(got), want_d):
        bad.append("descendant_counts")
    if not np.array_equal(
        dfds_priorities(fresh(inst), assignment), oracle_dfds(ref, assignment)
    ):
        bad.append("dfds")
    return bad


def family_cases(n: int = 256, k: int = 4, m: int = 8):
    rng = np.random.default_rng(7)
    for name in sorted(INSTANCE_FAMILIES):
        inst = make_instance(name, n=n, k=k, seed=3)
        yield name, inst, rng.integers(0, m, inst.n_cells)


# ----------------------------------------------------------------------
# equivalence
# ----------------------------------------------------------------------


class TestEquivalence:
    @given(
        sweep_instances(max_n=30, max_k=4),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_instances_match_oracles(self, inst, m, seed):
        assignment = np.random.default_rng(seed).integers(0, m, inst.n_cells)
        assert mismatches(inst, assignment) == []

    @pytest.mark.parametrize("name", sorted(INSTANCE_FAMILIES))
    def test_families_match_oracles(self, name):
        inst = make_instance(name, n=256, k=4, seed=3)
        assignment = np.random.default_rng(5).integers(0, 8, inst.n_cells)
        assert mismatches(inst, assignment) == []

    def test_mesh_instance_matches_oracles(self, tet_instance):
        assignment = np.random.default_rng(1).integers(0, 4, tet_instance.n_cells)
        assert mismatches(tet_instance, assignment) == []

    def test_several_bitset_chunks(self):
        """Counts stay exact across column-chunk boundaries."""
        inst = make_instance("random_layered", n=2 * DESC_CHUNK_BITS + 100, k=1, seed=2)
        g = inst.dags[0]
        assert np.array_equal(
            g.descendant_counts(), oracle_descendant_counts(fresh(inst).dags[0])
        )

    def test_counts_exact_above_20000_cells(self):
        """The size switch to a path-counting bound is gone: above
        20,000 vertices the counts are the exact ones, in ``[0, n-1]``."""
        inst = make_instance("random_layered", n=20_500, k=2, seed=0)
        n = inst.n_cells
        assert n > 20_000
        counts = descendant_counts_per_task(inst)
        assert counts.min() >= 0 and counts.max() <= n - 1
        want = np.concatenate(
            [oracle_descendant_counts(g) for g in fresh(inst).dags]
        )
        assert np.array_equal(counts, want)

    def test_cyclic_dag_is_refused(self):
        from repro.util.errors import InvalidInstanceError

        g = Dag(2, np.array([[0, 1], [1, 0]]), validate=False)
        for method in (g.b_levels, g.descendant_counts, g.reverse_level_layout):
            with pytest.raises(InvalidInstanceError, match="cycle"):
                method()


class TestLayout:
    def test_diamond_layout(self, diamond_dag):
        parents, children, seg, bounds = diamond_dag.reverse_level_layout()
        assert sorted(parents[:2]) == [1, 2] and parents[2] == 0
        assert list(seg) == [0, 1, 2, 4]
        assert list(children[:2]) == [3, 3]
        assert sorted(children[2:4]) == [1, 2]
        assert list(bounds) == [0, 2, 3]

    def test_edgeless_layout_has_no_groups(self):
        parents, children, seg, bounds = Dag(3, []).reverse_level_layout()
        assert parents.size == children.size == 0
        assert list(seg) == [0] and list(bounds) == [0]


# ----------------------------------------------------------------------
# mutation kills
# ----------------------------------------------------------------------


def _level_kill_case():
    """Kills ``level_off_by_one`` in all three reductions.

    Levels: {0, 5} -> {1, 2} -> {3} -> {4}, with 0->2, 5->1, 1->3, 2->3,
    3->4 and the only off-processor edge 3->4.  The layout's groups are
    [3], [2, 1], [5, 0] (levels in reverse topological order); the fault
    makes them [3, 2], [1, 5], [0], so 2 reads 3 and 5 reads 1 before
    either is final: b[2] and b[5] come out short, the descendant counts
    of 2 and 5 miss vertex 4, and the DFDS priority of 5 (true 3, via 1)
    drops to 0.
    """
    g = Dag.from_edge_list(6, [(0, 2), (5, 1), (1, 3), (2, 3), (3, 4)])
    return SweepInstance(6, [g]), np.array([0, 0, 0, 0, 1, 0])


class TestMutationKills:
    def test_level_off_by_one_killed(self, monkeypatch):
        inst, assignment = _level_kill_case()
        assert mismatches(inst, assignment) == []
        monkeypatch.setattr(dag_mod, "_MUTATION", "level_off_by_one")
        bad = mismatches(inst, assignment)
        assert {"union b_levels", "descendant_counts", "dfds"} <= set(bad)

    def test_dropped_clamp_killed(self, monkeypatch):
        """A chain on one processor has no off-processor edge: every
        priority is 0, and without the clamp the chain counts down from
        -1."""
        inst = SweepInstance(3, [Dag.from_edge_list(3, [(0, 1), (1, 2)])])
        assignment = np.zeros(3, dtype=np.int64)
        assert mismatches(inst, assignment) == []
        monkeypatch.setattr(dfds_mod, "_MUTATION", "dropped_clamp")
        assert list(dfds_priorities(fresh(inst), assignment)) == [-2, -1, 0]
        assert mismatches(inst, assignment) == ["dfds"]

    @pytest.mark.parametrize(
        "module, mutation",
        [(dag_mod, "level_off_by_one"), (dfds_mod, "dropped_clamp")],
    )
    def test_family_battery_kills(self, monkeypatch, module, mutation):
        """The family cases of the equivalence battery catch each fault
        on their own, without the hand-built cases."""
        monkeypatch.setattr(module, "_MUTATION", mutation)
        caught = [
            name for name, inst, a in family_cases() if mismatches(inst, a)
        ]
        assert caught
