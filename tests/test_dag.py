"""Unit and property tests for repro.core.dag."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.dag import Dag, csr_from_edges, _gather_csr, _popcount_rows
from repro.util.errors import InvalidInstanceError

from .strategies import dags


class TestConstruction:
    def test_empty_graph(self):
        g = Dag(0, np.empty((0, 2)))
        assert g.n == 0
        assert g.num_edges == 0
        assert g.num_levels() == 0

    def test_single_vertex(self):
        g = Dag(1, [])
        assert g.n == 1
        assert g.num_levels() == 1
        assert list(g.roots()) == [0]
        assert list(g.leaves()) == [0]

    def test_from_edge_list(self):
        g = Dag.from_edge_list(3, [(0, 1), (1, 2)])
        assert g.num_edges == 2
        assert list(g.successors(0)) == [1]
        assert list(g.successors(2)) == []

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(InvalidInstanceError, match="vertex count"):
            Dag(-1, [])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(InvalidInstanceError, match="endpoints"):
            Dag.from_edge_list(2, [(0, 2)])

    def test_negative_edge_rejected(self):
        with pytest.raises(InvalidInstanceError, match="endpoints"):
            Dag.from_edge_list(2, [(-1, 0)])

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidInstanceError, match="self-loops"):
            Dag.from_edge_list(2, [(1, 1)])

    def test_cycle_rejected(self):
        with pytest.raises(InvalidInstanceError, match="cycle"):
            Dag.from_edge_list(3, [(0, 1), (1, 2), (2, 0)])

    def test_two_cycle_rejected(self):
        with pytest.raises(InvalidInstanceError, match="cycle"):
            Dag.from_edge_list(2, [(0, 1), (1, 0)])

    def test_bad_edge_shape_rejected(self):
        with pytest.raises(InvalidInstanceError, match="\\(E, 2\\)"):
            Dag(3, np.zeros((2, 3)))

    def test_parallel_edges_allowed(self):
        g = Dag.from_edge_list(2, [(0, 1), (0, 1)])
        assert g.num_edges == 2
        assert g.indegree()[1] == 2

    def test_validate_false_skips_checks(self):
        # A cyclic graph slips through with validate=False...
        g = Dag.from_edge_list(2, [(0, 1)], validate=False)
        assert g.n == 2

    def test_repr(self):
        g = Dag.from_edge_list(3, [(0, 1)])
        assert "n=3" in repr(g)
        assert "edges=1" in repr(g)


class TestAdjacency:
    def test_successors_and_predecessors(self, diamond_dag):
        assert sorted(diamond_dag.successors(0)) == [1, 2]
        assert sorted(diamond_dag.predecessors(3)) == [1, 2]
        assert list(diamond_dag.predecessors(0)) == []

    def test_degrees(self, diamond_dag):
        assert list(diamond_dag.indegree()) == [0, 1, 1, 2]
        assert list(diamond_dag.outdegree()) == [2, 1, 1, 0]

    def test_degree_arrays_are_copies(self, diamond_dag):
        a = diamond_dag.indegree()
        a[0] = 99
        assert diamond_dag.indegree()[0] == 0

    def test_roots_and_leaves(self, diamond_dag):
        assert list(diamond_dag.roots()) == [0]
        assert list(diamond_dag.leaves()) == [3]

    def test_csr_from_edges_matches_manual(self):
        src = np.array([2, 0, 0, 1])
        dst = np.array([3, 1, 2, 3])
        off, tgt = csr_from_edges(4, src, dst)
        assert list(off) == [0, 2, 3, 4, 4]
        assert sorted(tgt[0:2]) == [1, 2]
        assert list(tgt[2:3]) == [3]
        assert list(tgt[3:4]) == [3]

    def test_len_and_iter(self, diamond_dag):
        assert len(diamond_dag) == 4
        assert list(diamond_dag) == [0, 1, 2, 3]


class TestLevels:
    def test_diamond_levels(self, diamond_dag):
        assert list(diamond_dag.level_of()) == [0, 1, 1, 2]
        assert diamond_dag.num_levels() == 3

    def test_chain_levels(self):
        g = Dag.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
        assert list(g.level_of()) == [0, 1, 2, 3]
        assert g.num_levels() == 4

    def test_disconnected_levels(self):
        g = Dag.from_edge_list(4, [(0, 1)])
        lev = g.level_of()
        assert lev[0] == 0 and lev[1] == 1
        assert lev[2] == 0 and lev[3] == 0

    def test_level_skipping_edge(self):
        # 0 -> 3 jumps from level 0 to level 3 in a chain graph.
        g = Dag.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert g.level_of()[3] == 3

    def test_levels_partition_vertices(self, diamond_dag):
        levels = diamond_dag.levels()
        flat = np.concatenate(levels)
        assert sorted(flat.tolist()) == [0, 1, 2, 3]
        assert [len(l) for l in levels] == [1, 2, 1]

    def test_topological_order_respects_edges(self, diamond_dag):
        order = diamond_dag.topological_order()
        pos = np.empty(4, dtype=int)
        pos[order] = np.arange(4)
        for u, v in diamond_dag.edges:
            assert pos[u] < pos[v]

    @given(dags())
    @settings(max_examples=40, deadline=None)
    def test_levels_match_networkx_longest_path(self, g):
        """Our Kahn-peel level equals networkx's longest-path layering."""
        nxg = g.to_networkx()
        expected = {v: 0 for v in nxg.nodes}
        for v in nx.topological_sort(nxg):
            for u in nxg.predecessors(v):
                expected[v] = max(expected[v], expected[u] + 1)
        got = g.level_of()
        for v in range(g.n):
            assert got[v] == expected[v]


class TestLongestPaths:
    def test_b_levels_chain(self):
        g = Dag.from_edge_list(3, [(0, 1), (1, 2)])
        assert list(g.b_levels()) == [3, 2, 1]

    def test_b_levels_diamond(self, diamond_dag):
        assert list(diamond_dag.b_levels()) == [3, 2, 2, 1]

    def test_critical_path(self, diamond_dag):
        assert diamond_dag.critical_path_length() == 3

    def test_critical_path_empty(self):
        assert Dag(0, []).critical_path_length() == 0

    def test_critical_path_no_edges(self):
        assert Dag(5, []).critical_path_length() == 1

    @given(dags())
    @settings(max_examples=40, deadline=None)
    def test_critical_path_matches_networkx(self, g):
        nxg = g.to_networkx()
        expected = nx.dag_longest_path_length(nxg) + 1 if g.n else 0
        assert g.critical_path_length() == expected


class TestReachability:
    def test_descendant_counts_diamond(self, diamond_dag):
        assert list(diamond_dag.descendant_counts()) == [3, 1, 1, 0]

    def test_descendant_counts_shared_descendant_not_double_counted(self):
        g = Dag.from_edge_list(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        # Vertex 3 reachable through both branches; exact count is 3 not 4.
        assert g.descendant_counts()[0] == 3

    def test_auto_selects_exact_for_small(self, diamond_dag):
        assert list(diamond_dag.descendant_counts()) == [3, 1, 1, 0]

    def test_reachable_from(self, diamond_dag):
        assert sorted(diamond_dag.reachable_from(0)) == [1, 2, 3]
        assert sorted(diamond_dag.reachable_from(1)) == [3]
        assert list(diamond_dag.reachable_from(3)) == []

    @given(dags(max_n=20))
    @settings(max_examples=30, deadline=None)
    def test_exact_descendants_match_networkx(self, g):
        nxg = g.to_networkx()
        counts = g.descendant_counts()
        for v in range(g.n):
            assert counts[v] == len(nx.descendants(nxg, v))


class TestNetworkxRoundtrip:
    def test_roundtrip(self, diamond_dag):
        g2 = Dag.from_networkx(diamond_dag.to_networkx())
        assert g2.n == diamond_dag.n
        assert sorted(map(tuple, g2.edges.tolist())) == sorted(
            map(tuple, diamond_dag.edges.tolist())
        )

    def test_from_networkx_rejects_noncontiguous_nodes(self):
        nxg = nx.DiGraph()
        nxg.add_edge(1, 5)
        with pytest.raises(InvalidInstanceError, match="0..n-1"):
            Dag.from_networkx(nxg)


class TestInternals:
    def test_gather_csr_concatenates_slices(self):
        off = np.array([0, 2, 2, 5])
        tgt = np.array([10, 11, 20, 21, 22])
        out = _gather_csr(off, tgt, np.array([0, 2]))
        assert list(out) == [10, 11, 20, 21, 22]

    def test_gather_csr_empty_nodes(self):
        off = np.array([0, 2])
        tgt = np.array([1, 2])
        out = _gather_csr(off, tgt, np.array([], dtype=np.int64))
        assert out.size == 0

    def test_popcount_rows(self):
        bits = np.array([[np.uint64(0b1011)], [np.uint64(0)]], dtype=np.uint64)
        assert list(_popcount_rows(bits)) == [3, 0]


class TestCsrFromEdgesValidation:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(InvalidInstanceError, match="matching shapes"):
            csr_from_edges(4, np.array([0, 1, 2]), np.array([1, 2]))

    def test_mismatched_lengths_rejected_from_lists(self):
        with pytest.raises(InvalidInstanceError, match="matching shapes"):
            csr_from_edges(4, [0, 1], [1])

    def test_matching_lengths_still_accepted(self):
        off, tgt = csr_from_edges(3, np.array([0, 0]), np.array([1, 2]))
        assert list(off) == [0, 2, 2, 2]
        assert sorted(tgt.tolist()) == [1, 2]


class TestMemoization:
    """The scheduling-engine caches must be caches: same values, and the
    arrays handed out must be private copies the caller can scribble on.
    """

    def test_descendant_counts_cached_and_copied(self):
        g = Dag.from_edge_list(5, [(0, 1), (1, 2), (0, 3), (3, 4)])
        counts = g.descendant_counts()
        assert g._desc_exact is not None
        assert np.array_equal(g.descendant_counts(), counts)
        counts[:] = -1
        assert list(g.descendant_counts()) == [4, 1, 0, 1, 0]

    def test_successor_lists_match_csr(self):
        g = Dag.from_edge_list(4, [(0, 1), (0, 2), (2, 3)])
        off, tgt = g.successor_lists()
        coff, ctgt = g.successor_csr()
        assert off == coff.tolist()
        assert tgt == ctgt.tolist()
        assert g.successor_lists()[0] is off  # cached, not rebuilt

    def test_indegree_list_returns_fresh_copies(self):
        g = Dag.from_edge_list(3, [(0, 1), (0, 2)])
        a = g.indegree_list()
        assert a == [0, 1, 1]
        a[0] = 99
        assert g.indegree_list() == [0, 1, 1]
