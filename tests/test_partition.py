"""Tests for coarsening, initial bisection, FM refinement, and k-way."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.mesh import Mesh
from repro.partition import (
    PartGraph,
    balance,
    bisection_cut,
    block_sizes,
    contract,
    edge_cut,
    fm_refine,
    greedy_graph_growing,
    heavy_edge_matching,
    multilevel_bisect,
    partition_graph,
    partition_mesh_blocks,
    random_blocks,
)
from repro.util.errors import PartitionError
from repro.util.rng import as_rng


def grid_graph(nx_, ny_):
    """nx_ x ny_ grid as a PartGraph."""
    mesh = Mesh.structured_grid((nx_, ny_))
    return PartGraph.from_edges(mesh.n_cells, mesh.adjacency), mesh


@st.composite
def weighted_graphs(draw, max_n: int = 24):
    """A random graph with integer edge weights in [1, 9] and vertex
    weights in [1, 5], plus a random bisection of it."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pairs, max_size=3 * n))
    g = PartGraph.from_edges(
        n,
        np.array(edges, dtype=np.int64).reshape(-1, 2),
        edge_weights=np.array(
            draw(st.lists(st.integers(1, 9), min_size=len(edges), max_size=len(edges))),
            dtype=np.int64,
        ),
        node_weights=np.array(
            draw(st.lists(st.integers(1, 5), min_size=n, max_size=n)), dtype=np.int64
        ),
    )
    side = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return g, side


def _window(g, target_weight, imbalance):
    """The side-1 weight window ``fm_refine`` keeps every move inside."""
    max_vw = int(g.vwgt.max())
    lo = max(0, int(target_weight * (1 - imbalance)) - max_vw)
    hi = min(g.total_vertex_weight, int(target_weight * (1 + imbalance)) + max_vw)
    return lo, hi


class TestRefineAndMatchingProperties:
    @given(weighted_graphs(), st.floats(0.0, 1.0), st.sampled_from([0.0, 0.05, 0.3]))
    def test_fm_refine_never_increases_cut(self, graph_side, frac, imbalance):
        g, side = graph_side
        target = int(frac * g.total_vertex_weight)
        refined = fm_refine(g, side, target, imbalance=imbalance)
        assert bisection_cut(g, refined) <= bisection_cut(g, side)

    @given(weighted_graphs(), st.floats(0.0, 1.0))
    def test_fm_refine_never_mutates_input(self, graph_side, frac):
        g, side = graph_side
        before = [a.copy() for a in (side, g.xadj, g.adjncy, g.adjwgt, g.vwgt)]
        fm_refine(g, side, int(frac * g.total_vertex_weight))
        after = (side, g.xadj, g.adjncy, g.adjwgt, g.vwgt)
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    @given(weighted_graphs(), st.integers(-8, 8), st.sampled_from([0.0, 0.05, 0.3]))
    def test_fm_refine_stays_inside_balance_window(self, graph_side, offset, imbalance):
        g, side = graph_side
        start = int(g.vwgt[side].sum())
        target = min(max(start + offset, 0), g.total_vertex_weight)
        lo, hi = _window(g, target, imbalance)
        assume(lo <= start <= hi)
        refined = fm_refine(g, side, target, imbalance=imbalance)
        assert lo <= int(g.vwgt[refined].sum()) <= hi

    @given(weighted_graphs(), st.integers(0, 2**31 - 1))
    def test_matching_is_an_involution_on_edges(self, graph_side, seed):
        g, _ = graph_side
        match = heavy_edge_matching(g, as_rng(seed))
        assert match.dtype == np.int64
        assert np.array_equal(match[match], np.arange(g.n))
        for v in np.flatnonzero(match != np.arange(g.n)).tolist():
            assert match[v] in g.neighbors(v)

    @given(weighted_graphs())
    def test_subgraph_is_the_from_edges_induced_graph(self, graph_side):
        """Filtering the CSR gives, array for array, the graph
        ``from_edges`` builds from the induced edge list."""
        from repro.partition.multilevel import _subgraph

        g, keep = graph_side
        remap = np.cumsum(keep) - 1
        induced = [
            (remap[u], remap[v], w)
            for u, v, w in zip(g.rows.tolist(), g.adjncy.tolist(), g.adjwgt.tolist())
            if keep[u] and keep[v] and u < v
        ]
        expected = PartGraph.from_edges(
            int(keep.sum()),
            np.array([(u, v) for u, v, _ in induced], dtype=np.int64).reshape(-1, 2),
            edge_weights=np.array([w for _, _, w in induced], dtype=np.int64),
            node_weights=g.vwgt[keep],
        )
        sub = _subgraph(g, keep)
        assert sub.n == expected.n
        for name in ("xadj", "adjncy", "adjwgt", "vwgt", "rows"):
            assert np.array_equal(getattr(sub, name), getattr(expected, name)), name

    @given(weighted_graphs())
    def test_rows_index_every_csr_entry(self, graph_side):
        g, _ = graph_side
        expected = np.repeat(np.arange(g.n), np.diff(g.xadj))
        assert np.array_equal(g.rows, expected)
        direct = PartGraph(g.n, g.xadj, g.adjncy, g.adjwgt, g.vwgt)
        assert np.array_equal(direct.rows, expected)

    @given(weighted_graphs())
    def test_gains_match_a_per_edge_loop(self, graph_side):
        from repro.partition.refine import _gains

        g, side = graph_side
        expected = np.zeros(g.n, dtype=np.int64)
        for u, v, w in zip(g.rows.tolist(), g.adjncy.tolist(), g.adjwgt.tolist()):
            expected[u] += w if side[u] != side[v] else -w
        gains = _gains(g, side)
        assert gains.dtype == np.int64
        assert np.array_equal(gains, expected)


class TestMatching:
    def test_matching_is_symmetric_involution(self, rng):
        g, _ = grid_graph(6, 6)
        match = heavy_edge_matching(g, rng)
        for v in range(g.n):
            assert match[match[v]] == v

    def test_matched_pairs_are_adjacent(self, rng):
        g, _ = grid_graph(5, 5)
        match = heavy_edge_matching(g, rng)
        for v in range(g.n):
            if match[v] != v:
                assert match[v] in g.neighbors(v)

    def test_prefers_heavy_edges(self):
        """Path 0-1-2 with weights 1 / 100.  Whenever vertex 1 or 2 is
        visited first the heavy pair (1,2) forms; only a first visit to
        vertex 0 can steal 1.  So (1,2) should dominate across seeds."""
        g = PartGraph.from_edges(
            3, np.array([[0, 1], [1, 2]]), edge_weights=np.array([1, 100])
        )
        heavy = sum(
            heavy_edge_matching(g, as_rng(seed))[1] == 2 for seed in range(60)
        )
        assert heavy > 30  # expectation is ~40 of 60


class TestContraction:
    def test_preserves_total_vertex_weight(self, rng):
        g, _ = grid_graph(6, 4)
        match = heavy_edge_matching(g, rng)
        level = contract(g, match)
        assert level.graph.total_vertex_weight == g.total_vertex_weight

    def test_shrinks_graph(self, rng):
        g, _ = grid_graph(8, 8)
        match = heavy_edge_matching(g, rng)
        level = contract(g, match)
        assert level.graph.n < g.n

    def test_fine_to_coarse_consistent_with_match(self, rng):
        g, _ = grid_graph(5, 5)
        match = heavy_edge_matching(g, rng)
        level = contract(g, match)
        f2c = level.fine_to_coarse
        for v in range(g.n):
            assert f2c[v] == f2c[match[v]]

    def test_cut_weight_preserved_under_projection(self, rng):
        """Any coarse bisection has the same cut as its fine projection."""
        g, _ = grid_graph(6, 6)
        match = heavy_edge_matching(g, rng)
        level = contract(g, match)
        coarse_side = np.zeros(level.graph.n, dtype=bool)
        coarse_side[: level.graph.n // 2] = True
        fine_side = coarse_side[level.fine_to_coarse]
        assert bisection_cut(level.graph, coarse_side) == bisection_cut(g, fine_side)


class TestInitialBisection:
    def test_reaches_target_weight(self, rng):
        g, _ = grid_graph(8, 8)
        side = greedy_graph_growing(g, 32, rng)
        w = int(g.vwgt[side].sum())
        assert 32 <= w <= 33  # may overshoot by one vertex

    def test_cut_on_grid_is_reasonable(self, rng):
        # An 8x8 grid's balanced bisection has an optimal cut of 8.
        g, _ = grid_graph(8, 8)
        side = greedy_graph_growing(g, 32, rng, tries=8)
        assert bisection_cut(g, side) <= 16

    def test_zero_target_keeps_everything_off(self, rng):
        g, _ = grid_graph(3, 3)
        side = greedy_graph_growing(g, 0, rng)
        assert not side.any()

    def test_handles_disconnected_graph(self, rng):
        g = PartGraph.from_edges(4, np.array([[0, 1]]))  # 2,3 isolated
        side = greedy_graph_growing(g, 2, rng)
        assert int(side.sum()) == 2


class TestFMRefine:
    def test_never_worsens_cut(self, rng):
        g, _ = grid_graph(8, 8)
        raw = rng.random(g.n) < 0.5
        before = bisection_cut(g, raw)
        refined = fm_refine(g, raw, target_weight=int(raw.sum()))
        assert bisection_cut(g, refined) <= before

    def test_fixes_obviously_bad_bisection(self, rng):
        """A checkerboard split of a grid has a terrible cut; FM must
        improve it massively."""
        g, mesh = grid_graph(8, 8)
        checker = (mesh.cell_coords.sum(axis=1) % 2).astype(bool)
        before = bisection_cut(g, checker)
        refined = fm_refine(g, checker, target_weight=32)
        assert bisection_cut(g, refined) < before / 2

    def test_respects_balance_window(self, rng):
        g, _ = grid_graph(6, 6)
        side = np.zeros(g.n, dtype=bool)
        side[:18] = True
        refined = fm_refine(g, side, target_weight=18, imbalance=0.1)
        w = int(g.vwgt[refined].sum())
        assert 18 * 0.9 - 1 <= w <= 18 * 1.1 + 1

    def test_input_not_mutated(self, rng):
        g, _ = grid_graph(5, 5)
        side = np.zeros(g.n, dtype=bool)
        side[:12] = True
        copy = side.copy()
        fm_refine(g, side, target_weight=12)
        assert np.array_equal(side, copy)

    def test_single_vertex_graph(self):
        g = PartGraph.from_edges(1, np.empty((0, 2)))
        side = np.array([False])
        assert not fm_refine(g, side, 0).any()


class TestMultilevel:
    def test_bisect_grid_quality(self):
        g, _ = grid_graph(16, 16)
        side = multilevel_bisect(g, g.n // 2, seed=0)
        # Optimal cut is 16; multilevel should get within 2x.
        assert bisection_cut(g, side) <= 32
        w = int(side.sum())
        assert abs(w - 128) <= 16

    def test_partition_labels_complete(self):
        g, _ = grid_graph(10, 10)
        labels = partition_graph(g, 5, seed=0)
        assert labels.shape == (100,)
        assert set(labels.tolist()) == {0, 1, 2, 3, 4}

    def test_partition_balanced(self):
        g, _ = grid_graph(12, 12)
        labels = partition_graph(g, 4, seed=0)
        assert balance(labels) < 1.35

    def test_beats_random_on_grid(self):
        g, mesh = grid_graph(12, 12)
        ml = partition_graph(g, 6, seed=0)
        rnd = random_blocks(g.n, g.n // 6, seed=0)
        assert edge_cut(ml, mesh.adjacency) < edge_cut(rnd, mesh.adjacency) / 2

    def test_deterministic(self):
        g, _ = grid_graph(8, 8)
        a = partition_graph(g, 4, seed=3)
        b = partition_graph(g, 4, seed=3)
        assert np.array_equal(a, b)

    def test_k_equals_one(self):
        g, _ = grid_graph(4, 4)
        labels = partition_graph(g, 1, seed=0)
        assert set(labels.tolist()) == {0}

    def test_k_not_power_of_two(self):
        g, _ = grid_graph(9, 9)
        labels = partition_graph(g, 3, seed=0)
        assert set(labels.tolist()) == {0, 1, 2}
        assert balance(labels) < 1.4

    def test_rejects_bad_k(self):
        g, _ = grid_graph(3, 3)
        with pytest.raises(PartitionError, match="n_parts"):
            partition_graph(g, 0)


class TestPartitionMeshBlocks:
    def test_block_size_one_is_identity(self):
        blocks = partition_mesh_blocks(5, np.empty((0, 2)), 1)
        assert blocks.tolist() == [0, 1, 2, 3, 4]

    def test_block_size_covers_all(self, tet_mesh):
        blocks = partition_mesh_blocks(tet_mesh.n_cells, tet_mesh.adjacency, 32, seed=0)
        sizes = block_sizes(blocks)
        assert sizes.sum() == tet_mesh.n_cells
        assert blocks.min() == 0

    def test_huge_block_size_single_block(self):
        blocks = partition_mesh_blocks(10, np.empty((0, 2)), 100)
        assert set(blocks.tolist()) == {0}

    def test_zero_cells(self):
        assert partition_mesh_blocks(0, np.empty((0, 2)), 4).size == 0

    def test_rejects_bad_block_size(self):
        with pytest.raises(PartitionError, match="block_size"):
            partition_mesh_blocks(10, np.empty((0, 2)), 0)


class TestWeightedBlocks:
    def test_weighted_partition_balances_work(self):
        """Cells with 10x weight pull block boundaries: weighted blocks
        should balance total weight better than unweighted blocks do."""
        import numpy as np

        from repro.mesh import Mesh
        from repro.partition.multilevel import partition_mesh_blocks

        mesh = Mesh.structured_grid((12, 12))
        rng = np.random.default_rng(0)
        weights = np.ones(mesh.n_cells, dtype=np.int64)
        heavy = rng.choice(mesh.n_cells, size=mesh.n_cells // 8, replace=False)
        weights[heavy] = 10

        def weight_std(blocks):
            totals = np.zeros(int(blocks.max()) + 1)
            np.add.at(totals, blocks, weights.astype(float))
            return float(totals.std())

        plain = partition_mesh_blocks(mesh.n_cells, mesh.adjacency, 18, seed=0)
        weighted = partition_mesh_blocks(
            mesh.n_cells, mesh.adjacency, 18, seed=0, cell_weights=weights
        )
        assert weight_std(weighted) < weight_std(plain)

    def test_weight_validation(self):
        import numpy as np
        import pytest as _pytest

        from repro.partition.multilevel import partition_mesh_blocks
        from repro.util.errors import PartitionError

        edges = np.array([[0, 1], [1, 2], [2, 3]])
        with _pytest.raises(PartitionError, match="one entry per cell"):
            partition_mesh_blocks(4, edges, 2, cell_weights=np.ones(3, dtype=int))
        with _pytest.raises(PartitionError, match="integers"):
            partition_mesh_blocks(4, edges, 2, cell_weights=np.ones(4))
        with _pytest.raises(PartitionError, match="positive"):
            partition_mesh_blocks(4, edges, 2, cell_weights=np.zeros(4, dtype=int))
