"""Tests for the SweepInstance model."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import Dag, SweepInstance
from repro.core.instance import unique_pairs
from repro.instances import INSTANCE_FAMILIES, make_instance
from repro.util.errors import InvalidInstanceError

from .strategies import sweep_instances


class TestShape:
    def test_basic_counts(self, chain_instance):
        assert chain_instance.n_cells == 4
        assert chain_instance.k == 2
        assert chain_instance.n_tasks == 8

    def test_task_id_mapping_roundtrip(self, chain_instance):
        for v in range(4):
            for i in range(2):
                tid = chain_instance.task_id(v, i)
                assert chain_instance.task_cell(tid) == v
                assert chain_instance.task_direction(tid) == i

    def test_task_id_vectorised(self, chain_instance):
        tids = np.arange(8)
        cells = chain_instance.task_cell(tids)
        dirs = chain_instance.task_direction(tids)
        assert list(cells) == [0, 1, 2, 3, 0, 1, 2, 3]
        assert list(dirs) == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_needs_at_least_one_dag(self):
        with pytest.raises(InvalidInstanceError, match="at least one"):
            SweepInstance(3, [])

    def test_rejects_mismatched_dag_size(self):
        g = Dag.from_edge_list(3, [(0, 1)])
        with pytest.raises(InvalidInstanceError, match="direction 0"):
            SweepInstance(4, [g])

    def test_rejects_negative_cells(self):
        with pytest.raises(InvalidInstanceError, match="n_cells"):
            SweepInstance(-1, [Dag(0, [])])

    def test_repr(self, chain_instance):
        assert "n_cells=4" in repr(chain_instance)


class TestDerivedStructure:
    def test_union_dag_offsets_directions(self, chain_instance):
        union = chain_instance.union_dag()
        assert union.n == 8
        assert union.num_edges == 6
        edges = set(map(tuple, union.edges.tolist()))
        assert (0, 1) in edges  # direction 0 chain
        assert (4 + 3, 4 + 2) in edges  # direction 1 reversed chain

    def test_union_dag_cached(self, chain_instance):
        assert chain_instance.union_dag() is chain_instance.union_dag()

    def test_task_levels(self, chain_instance):
        lev = chain_instance.task_levels()
        assert list(lev[:4]) == [0, 1, 2, 3]  # forward chain
        assert list(lev[4:]) == [3, 2, 1, 0]  # backward chain

    def test_depth(self, chain_instance):
        assert chain_instance.depth() == 4

    def test_derived_cell_edges_are_undirected_unique(self, chain_instance):
        e = chain_instance.cell_graph_edges
        # Both directions of the chain collapse to 3 undirected edges.
        assert e.shape == (3, 2)
        assert np.all(e[:, 0] < e[:, 1])

    def test_explicit_cell_edges_kept(self):
        g = Dag.from_edge_list(3, [(0, 1)])
        custom = np.array([[0, 2]])
        inst = SweepInstance(3, [g], cell_graph_edges=custom)
        assert inst.cell_graph_edges.tolist() == [[0, 2]]

    def test_validate_passes_on_good_instance(self, chain_instance):
        chain_instance.validate()

    @given(sweep_instances())
    @settings(max_examples=25, deadline=None)
    def test_union_levels_dominate_direction_levels(self, inst):
        """A task's union-DAG level is >= its level in its own direction
        (the union adds constraints only through shared structure —
        actually none here since directions are disjoint copies)."""
        union_lev = inst.union_dag().level_of()
        own = inst.task_levels()
        assert np.array_equal(union_lev, own)


def _reference_pairs(lo, hi):
    """The ``np.unique(axis=0)`` dedup :func:`unique_pairs` replaces."""
    return np.unique(np.stack([lo, hi], 1), axis=0)


def _assert_same(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def _undirected(inst):
    e = np.concatenate([g.edges for g in inst.dags], axis=0)
    return np.minimum(e[:, 0], e[:, 1]), np.maximum(e[:, 0], e[:, 1])


@pytest.fixture
def traced():
    was = obs.tracing_enabled()
    obs.reset()
    obs.enable_tracing()
    yield
    obs.reset()
    if not was:
        obs.disable_tracing()


def _cell_graph_spans():
    return [s for s in obs.drain_spans() if s.name == "instance.cell_graph"]


class TestUniquePairs:
    @given(sweep_instances())
    @settings(max_examples=60, deadline=None)
    def test_matches_np_unique_on_instances(self, inst):
        lo, hi = _undirected(inst)
        _assert_same(unique_pairs(lo, hi, inst.n_cells), _reference_pairs(lo, hi))
        # Directed pairs too (the fuzz generator's use).
        e = np.concatenate([g.edges for g in inst.dags], axis=0)
        _assert_same(
            unique_pairs(e[:, 0], e[:, 1], inst.n_cells),
            _reference_pairs(e[:, 0], e[:, 1]),
        )
        _assert_same(inst.cell_graph_edges, _reference_pairs(lo, hi))

    @given(
        st.integers(min_value=1, max_value=40).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(
                        st.integers(0, n - 1), st.integers(0, n - 1)
                    ),
                    max_size=60,
                ),
            )
        ),
        st.sampled_from([np.int64, np.int32, np.intp]),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_np_unique_on_arbitrary_pairs(self, case, dtype):
        n, pairs = case
        arr = np.array(pairs, dtype=dtype).reshape(-1, 2)
        _assert_same(
            unique_pairs(arr[:, 0], arr[:, 1], n),
            _reference_pairs(arr[:, 0], arr[:, 1]),
        )

    def test_empty_input(self):
        empty = np.empty(0, dtype=np.int64)
        _assert_same(unique_pairs(empty, empty, 5), _reference_pairs(empty, empty))
        _assert_same(unique_pairs(empty, empty, 0), _reference_pairs(empty, empty))

    def test_single_cell(self):
        zero = np.zeros(3, dtype=np.int64)
        _assert_same(unique_pairs(zero, zero, 1), _reference_pairs(zero, zero))

    def test_edge_repeated_across_directions(self):
        g = Dag.from_edge_list(4, [(0, 1), (2, 3)])
        inst = SweepInstance(4, [g, g, g])
        assert inst.cell_graph_edges.tolist() == [[0, 1], [2, 3]]
        lo, hi = _undirected(inst)
        _assert_same(inst.cell_graph_edges, _reference_pairs(lo, hi))

    def test_reversed_edges_collapse(self):
        fwd = Dag.from_edge_list(3, [(0, 2), (1, 2)])
        rev = Dag.from_edge_list(3, [(2, 0), (2, 1)])
        inst = SweepInstance(3, [fwd, rev])
        assert inst.cell_graph_edges.tolist() == [[0, 2], [1, 2]]
        lo, hi = _undirected(inst)
        _assert_same(inst.cell_graph_edges, _reference_pairs(lo, hi))


class TestLazyCellGraph:
    def test_empty_dags_give_empty_int64_graph(self):
        empty = np.empty((0, 2), dtype=np.int64)
        inst = SweepInstance(5, [Dag(5, empty), Dag(5, empty)])
        assert inst.cell_graph_edges.shape == (0, 2)
        assert inst.cell_graph_edges.dtype == np.int64

    def test_single_cell_instance(self):
        inst = SweepInstance(1, [Dag(1, []), Dag(1, [])])
        assert inst.cell_graph_edges.shape == (0, 2)

    def test_family_instance_derives_on_first_read_only(self, traced):
        inst = make_instance("wide_shallow", n=64, k=4, seed=1)
        assert _cell_graph_spans() == []  # construction does not derive it
        edges = inst.cell_graph_edges
        (span,) = _cell_graph_spans()
        assert span.cat == "build"
        assert span.args == {
            "n_edges_in": sum(g.num_edges for g in inst.dags),
            "n_edges_out": len(edges),
        }
        assert inst.cell_graph_edges is edges  # cached
        assert _cell_graph_spans() == []

    def test_explicit_edges_never_derive(self, traced):
        g = Dag.from_edge_list(3, [(0, 1)])
        inst = SweepInstance(3, [g], cell_graph_edges=np.array([[0, 2]]))
        inst.export_arrays()
        assert inst.cell_graph_edges.tolist() == [[0, 2]]
        assert _cell_graph_spans() == []

    def test_export_carries_cell_edges_and_round_trips(self):
        inst = make_instance("random_layered", n=96, k=4, seed=2)
        meta, arrays = inst.export_arrays()
        assert "cell_edges" in arrays
        back = SweepInstance.from_arrays(meta, arrays)
        _assert_same(back.cell_graph_edges, inst.cell_graph_edges)


#: ``(rows, crc32 of tobytes())`` of the derived ``cell_graph_edges`` of
#: every ``make_instance(family, n=1024, k=8, seed=4)``.  Computed with the
#: original ``np.unique(np.stack([lo, hi], axis=1), axis=0)`` derivation,
#: before the packed-key dedup replaced it; all arrays are int64.
CELL_GRAPH_GOLDENS = {
    "identical_chains": (1023, 0x92B907D5),
    "rotated_chains": (1024, 0x5B8CEC9E),
    "opposing_chains": (1023, 0x92B907D5),
    "fork_join": (7974, 0x9C3517F0),
    "wide_shallow": (149266, 0xB56F3F4D),
    "random_layered": (19284, 0x28EFDC97),
    "tree_sweeps": (1022, 0x2B71015C),
    "butterfly": (18688, 0xF771AFC4),
}


def test_cell_graph_goldens_cover_every_family():
    assert set(CELL_GRAPH_GOLDENS) == set(INSTANCE_FAMILIES)


@pytest.mark.parametrize("family", sorted(CELL_GRAPH_GOLDENS))
def test_cell_graph_golden(family):
    e = make_instance(family, n=1024, k=8, seed=4).cell_graph_edges
    rows, crc = CELL_GRAPH_GOLDENS[family]
    assert e.dtype == np.int64
    assert e.shape == (rows, 2)
    assert zlib.crc32(e.tobytes()) == crc
