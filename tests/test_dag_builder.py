"""Tests for sweep-DAG induction from meshes."""

import zlib

import numpy as np
import pytest

from repro.core.dag import Dag
from repro.mesh import Mesh
from repro.mesh.generators import make_mesh, mesh_dim
from repro.sweeps import (
    build_instance,
    circle_directions,
    directions_for_mesh,
    sweep_edges,
)
from repro.sweeps.dag_builder import DEFAULT_TOL
from repro.util.errors import MeshError


class TestStructuredGridSweeps:
    def test_plus_x_direction_chains_rows(self):
        mesh = Mesh.structured_grid((3, 1))
        edges = sweep_edges(mesh, np.array([1.0, 0.0]))
        assert sorted(map(tuple, edges.tolist())) == [(0, 1), (1, 2)]

    def test_minus_x_reverses(self):
        mesh = Mesh.structured_grid((3, 1))
        edges = sweep_edges(mesh, np.array([-1.0, 0.0]))
        assert sorted(map(tuple, edges.tolist())) == [(1, 0), (2, 1)]

    def test_perpendicular_faces_unconstrained(self):
        """Sweeping along +x imposes nothing across y-faces."""
        mesh = Mesh.structured_grid((2, 2))
        edges = sweep_edges(mesh, np.array([1.0, 0.0]))
        # Only the two x-adjacencies appear.
        assert edges.shape[0] == 2

    def test_diagonal_direction_orders_both_axes(self):
        mesh = Mesh.structured_grid((2, 2))
        w = np.array([1.0, 1.0]) / np.sqrt(2)
        g = build_instance(mesh, w[None]).dags[0]
        # Cell (0,0)=id0 must precede (1,1)=id3 via both (0,1) and (1,0).
        lev = g.level_of()
        assert lev[0] == 0 and lev[3] == 2

    def test_grid_sweep_level_count(self):
        mesh = Mesh.structured_grid((4, 4))
        w = np.array([1.0, 1.0]) / np.sqrt(2)
        g = build_instance(mesh, w[None]).dags[0]
        # Diagonal wavefronts: 4 + 4 - 1 levels.
        assert g.num_levels() == 7

    def test_rejects_wrong_direction_shape(self):
        mesh = Mesh.structured_grid((2, 2))
        with pytest.raises(MeshError, match="direction"):
            sweep_edges(mesh, np.array([1.0, 0.0, 0.0]))


class TestDelaunaySweeps:
    def test_all_directions_acyclic(self, tri_mesh):
        for w in circle_directions(8):
            g = Dag(tri_mesh.n_cells, sweep_edges(tri_mesh, w))
            assert isinstance(g, Dag)  # constructor validates acyclicity

    def test_opposite_directions_reverse_edges(self, tri_mesh):
        w = np.array([1.0, 0.0])
        fwd = set(map(tuple, sweep_edges(tri_mesh, w).tolist()))
        bwd = set(map(tuple, sweep_edges(tri_mesh, -w).tolist()))
        assert fwd == {(v, u) for (u, v) in bwd}

    def test_every_interior_face_constrains_generic_direction(self, tri_mesh):
        """For a generic direction no face is exactly parallel, so every
        adjacency pair induces exactly one edge."""
        w = np.array([0.8716, 0.4902])
        w = w / np.linalg.norm(w)
        edges = sweep_edges(tri_mesh, w)
        assert edges.shape[0] == tri_mesh.n_faces

    def test_3d_instance_depth_reasonable(self, tet_instance, tet_mesh):
        # Depth cannot exceed the cell count and must be at least a few
        # layers for any real mesh.
        assert 3 <= tet_instance.depth() <= tet_mesh.n_cells


class TestBuildInstance:
    def test_instance_shape(self, tri_mesh):
        inst = build_instance(tri_mesh, circle_directions(4))
        assert inst.k == 4
        assert inst.n_cells == tri_mesh.n_cells
        assert inst.name.endswith("_k4")

    def test_cell_graph_edges_are_mesh_adjacency(self, tri_mesh):
        inst = build_instance(tri_mesh, circle_directions(4))
        assert np.array_equal(inst.cell_graph_edges, tri_mesh.adjacency)

    def test_rejects_wrong_direction_dim(self, tri_mesh):
        with pytest.raises(MeshError, match="directions"):
            build_instance(tri_mesh, np.ones((4, 3)))

    def test_custom_name(self, tri_mesh):
        inst = build_instance(tri_mesh, circle_directions(2), name="custom")
        assert inst.name == "custom"


def _chain_mesh(normals: np.ndarray) -> Mesh:
    """A path of ``len(normals)+1`` cells, one hand-set face normal each."""
    n_faces = normals.shape[0]
    adjacency = np.stack(
        [np.arange(n_faces), np.arange(1, n_faces + 1)], axis=1
    ).astype(np.int64)
    mesh = Mesh(
        points=np.empty((0, 2)),
        cells=None,
        adjacency=adjacency,
        face_normals=np.asarray(normals, dtype=np.float64),
        centroids=np.stack(
            [np.arange(n_faces + 1, dtype=np.float64), np.zeros(n_faces + 1)],
            axis=1,
        ),
        name="chain_faces",
    )
    mesh.validate()
    return mesh


class TestToleranceBoundary:
    """The upwind test is a *strict* inequality at ``tol`` (both signs)."""

    def test_dot_exactly_tol_dropped_both_signs(self):
        mesh = _chain_mesh(np.array([[1.0, 0.0]]))
        # |n . w| == tol exactly: parallel-within-tolerance, no edge.
        for w in ([DEFAULT_TOL, 0.0], [-DEFAULT_TOL, 0.0]):
            assert sweep_edges(mesh, np.array(w)).shape == (0, 2)

    def test_dot_one_ulp_past_tol_kept(self):
        mesh = _chain_mesh(np.array([[1.0, 0.0]]))
        past = np.nextafter(DEFAULT_TOL, np.inf)
        fwd = sweep_edges(mesh, np.array([past, 0.0]))
        assert fwd.tolist() == [[0, 1]]
        bwd = sweep_edges(mesh, np.array([-past, 0.0]))
        assert bwd.tolist() == [[1, 0]]

    def test_custom_tol_widens_the_dead_band(self):
        mesh = _chain_mesh(np.array([[1.0, 0.0]]))
        w = np.array([1e-6, 1.0])
        assert sweep_edges(mesh, w).shape[0] == 1
        assert sweep_edges(mesh, w, tol=1e-3).shape == (0, 2)

    def test_duplicated_normals_keep_face_order(self):
        """Identical normals tie on the upwind test; the edge array must
        keep the mesh's face order (the layout both builders share)."""
        mesh = _chain_mesh(np.array([[1.0, 0.0]] * 4))
        fwd = sweep_edges(mesh, np.array([1.0, 0.0]))
        assert np.array_equal(fwd, mesh.adjacency)
        bwd = sweep_edges(mesh, np.array([-1.0, 0.0]))
        assert np.array_equal(bwd, mesh.adjacency[:, ::-1])

    def test_mixed_signs_forward_block_precedes_backward(self):
        """sweep_edges layout: all forward faces (mesh order), then all
        backward faces (mesh order, reversed pairs)."""
        mesh = _chain_mesh(
            np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        )
        edges = sweep_edges(mesh, np.array([1.0, 0.0]))
        assert edges.tolist() == [[0, 1], [3, 4], [2, 1]]


class TestGoldenEdgeChecksums:
    """Frozen crc32 of the first-direction edge array per mesh family
    (200 target cells, seed 0, the k=8 direction set) — any drift in
    edge induction, face ordering, or mesh generation trips this."""

    _EDGE_GOLD = {
        "graded": 707835598,
        "long": 3091646696,
        "prismtet": 2210975301,
        "square2d": 3690006505,
        "tetonly": 3738758997,
        "well_logging": 3024256154,
    }

    @pytest.mark.parametrize("family", sorted(_EDGE_GOLD))
    def test_edge_array_checksum(self, family):
        mesh = make_mesh(family, target_cells=200, seed=0)
        dirs = directions_for_mesh(mesh_dim(family), 8)
        edges = sweep_edges(mesh, dirs[0])
        assert zlib.crc32(edges.tobytes()) == self._EDGE_GOLD[family]
