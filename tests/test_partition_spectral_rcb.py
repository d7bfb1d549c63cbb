"""Tests for the spectral and RCB partitioners."""

import numpy as np
import pytest

from repro.mesh import Mesh, tetonly_like
from repro.partition import (
    PartGraph,
    balance,
    bisection_cut,
    edge_cut,
    fiedler_vector,
    random_blocks,
    rcb_blocks,
    rcb_partition,
    spectral_bisect,
    spectral_partition,
)
from repro.util.errors import PartitionError


def grid_graph(nx_, ny_):
    mesh = Mesh.structured_grid((nx_, ny_))
    return PartGraph.from_edges(mesh.n_cells, mesh.adjacency), mesh


class TestFiedler:
    def test_path_graph_is_monotone(self):
        """On a path, the Fiedler vector is monotone along the path."""
        edges = np.array([[i, i + 1] for i in range(9)])
        g = PartGraph.from_edges(10, edges)
        f = fiedler_vector(g)
        diffs = np.diff(f)
        assert np.all(diffs > 0) or np.all(diffs < 0)

    def test_disconnected_graph_separates_components(self):
        edges = np.array([[0, 1], [1, 2], [3, 4], [4, 5]])
        g = PartGraph.from_edges(6, edges)
        f = fiedler_vector(g)
        a = f[:3]
        b = f[3:]
        assert a.max() < b.min() or b.max() < a.min()

    def test_needs_two_vertices(self):
        g = PartGraph.from_edges(1, np.empty((0, 2)))
        with pytest.raises(PartitionError):
            fiedler_vector(g)

    def test_large_graph_sparse_path(self):
        g, _ = grid_graph(12, 12)  # > 64 vertices: exercises eigsh
        f = fiedler_vector(g)
        assert f.shape == (144,)


class TestSpectralBisect:
    def test_grid_cut_near_optimal(self):
        g, _ = grid_graph(8, 8)
        side = spectral_bisect(g)
        assert bisection_cut(g, side) <= 2 * 8  # optimal is 8
        assert abs(int(side.sum()) - 32) <= 8

    def test_dumbbell_cuts_the_bridge(self):
        """Two cliques joined by one edge: spectral must cut the bridge."""
        edges = []
        for i in range(5):
            for j in range(i + 1, 5):
                edges.append((i, j))
                edges.append((5 + i, 5 + j))
        edges.append((0, 5))
        g = PartGraph.from_edges(10, np.array(edges))
        side = spectral_bisect(g, refine=False)
        assert bisection_cut(g, side) == 1

    def test_kway_partition(self):
        g, mesh = grid_graph(10, 10)
        labels = spectral_partition(g, 4)
        assert set(labels.tolist()) == {0, 1, 2, 3}
        assert balance(labels) < 1.5
        rnd = random_blocks(100, 25, seed=0)
        assert edge_cut(labels, mesh.adjacency) < edge_cut(rnd, mesh.adjacency)

    def test_rejects_bad_k(self):
        g, _ = grid_graph(3, 3)
        with pytest.raises(PartitionError):
            spectral_partition(g, 0)

    def test_repeated_calls_give_identical_labels(self):
        """The eigensolver starts from a fixed vector, so the partition
        is a function of the graph alone (large enough for eigsh)."""
        mesh = tetonly_like(250, seed=0)
        first, *rest = (
            spectral_partition(PartGraph.from_edges(mesh.n_cells, mesh.adjacency), 8)
            for _ in range(5)
        )
        for labels in rest:
            np.testing.assert_array_equal(labels, first)


class TestRCB:
    def test_balanced_exactly(self):
        rng = np.random.default_rng(0)
        pts = rng.random((100, 3))
        labels = rcb_partition(pts, 4)
        counts = np.bincount(labels)
        assert counts.max() - counts.min() <= 1

    def test_splits_longest_axis_first(self):
        pts = np.stack([np.arange(10.0), np.zeros(10)], axis=1)
        labels = rcb_partition(pts, 2)
        assert labels.tolist() == [0] * 5 + [1] * 5

    def test_k_not_power_of_two(self):
        rng = np.random.default_rng(1)
        pts = rng.random((90, 2))
        labels = rcb_partition(pts, 3)
        assert sorted(np.bincount(labels).tolist()) == [30, 30, 30]

    def test_blocks_by_size(self):
        rng = np.random.default_rng(2)
        pts = rng.random((100, 3))
        blocks = rcb_blocks(pts, 25)
        assert blocks.max() + 1 == 4

    def test_locality_beats_random_on_mesh(self):
        mesh = tetonly_like(400, seed=0)
        rcb = rcb_blocks(mesh.centroids, 32)
        rnd = random_blocks(mesh.n_cells, 32, seed=0)
        assert edge_cut(rcb, mesh.adjacency) < edge_cut(rnd, mesh.adjacency)

    def test_errors(self):
        with pytest.raises(PartitionError):
            rcb_partition(np.zeros((5, 2)), 0)
        with pytest.raises(PartitionError):
            rcb_blocks(np.zeros((5, 2)), 0)
        with pytest.raises(PartitionError):
            rcb_partition(np.zeros(5), 2)

    def test_empty(self):
        assert rcb_blocks(np.empty((0, 2)), 4).size == 0
