"""Property-based tests over random meshes and sweep directions.

Hypothesis drives point clouds and direction angles; the invariants are
the contracts everything downstream assumes: valid meshes, acyclic sweep
DAGs, orientation consistency, cell-closure (divergence theorem), and
coverage of the whole mesh by every sweep.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dag import Dag
from repro.mesh import Mesh
from repro.sweeps import build_instance, sweep_edges


@st.composite
def point_clouds_2d(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    n = draw(st.integers(min_value=10, max_value=60))
    rng = np.random.default_rng(seed)
    return rng.random((n, 2))


@st.composite
def point_clouds_3d(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    n = draw(st.integers(min_value=12, max_value=50))
    rng = np.random.default_rng(seed)
    return rng.random((n, 3))


angles = st.floats(min_value=0.0, max_value=2 * np.pi, allow_nan=False)


class TestRandomMeshInvariants:
    @given(point_clouds_2d())
    @settings(max_examples=25, deadline=None)
    def test_2d_mesh_valid(self, pts):
        mesh = Mesh.from_delaunay(pts)
        mesh.validate()
        assert mesh.cell_volumes.min() >= 0
        # Euler-ish sanity: triangles <= 2 * points.
        assert mesh.n_cells <= 2 * pts.shape[0]

    @given(point_clouds_3d())
    @settings(max_examples=15, deadline=None)
    def test_3d_mesh_valid(self, pts):
        mesh = Mesh.from_delaunay(pts)
        mesh.validate()

    @given(point_clouds_2d())
    @settings(max_examples=20, deadline=None)
    def test_cell_closure(self, pts):
        """Divergence theorem per cell: interior + boundary face normals
        (area-weighted) of each cell sum to ~0.  This is the identity
        the white-boundary infinite-medium proof rests on."""
        mesh = Mesh.from_delaunay(pts)
        acc = np.zeros((mesh.n_cells, 2))
        if mesh.n_faces:
            w = mesh.face_normals * mesh.face_areas[:, None]
            np.add.at(acc, mesh.adjacency[:, 0], w)
            np.add.at(acc, mesh.adjacency[:, 1], -w)
        if mesh.boundary_cells is not None and mesh.boundary_cells.size:
            bw = mesh.boundary_normals * mesh.boundary_areas[:, None]
            np.add.at(acc, mesh.boundary_cells, bw)
        assert np.abs(acc).max() < 1e-9


class TestRandomSweepInvariants:
    @given(point_clouds_2d(), angles)
    @settings(max_examples=30, deadline=None)
    def test_sweep_dag_acyclic_without_breaking(self, pts, theta):
        """Delaunay meshes admit acyclic sweeps for any direction
        (Edelsbrunner's acyclicity theorem) — the Dag constructor
        verifies acyclicity, so construction succeeding is the test."""
        mesh = Mesh.from_delaunay(pts)
        w = np.array([np.cos(theta), np.sin(theta)])
        Dag(mesh.n_cells, sweep_edges(mesh, w))

    @given(point_clouds_2d(), angles)
    @settings(max_examples=25, deadline=None)
    def test_opposite_direction_reverses(self, pts, theta):
        mesh = Mesh.from_delaunay(pts)
        w = np.array([np.cos(theta), np.sin(theta)])
        fwd = {tuple(e) for e in sweep_edges(mesh, w).tolist()}
        bwd = {tuple(e) for e in sweep_edges(mesh, -w).tolist()}
        assert fwd == {(v, u) for (u, v) in bwd}

    @given(point_clouds_2d(), angles)
    @settings(max_examples=25, deadline=None)
    def test_every_cell_reachable_in_levels(self, pts, theta):
        mesh = Mesh.from_delaunay(pts)
        w = np.array([np.cos(theta), np.sin(theta)])
        g = build_instance(mesh, w[None]).dags[0]
        assert g.level_of().min() >= 0  # every cell placed in a level

    @given(point_clouds_2d(), angles)
    @settings(max_examples=20, deadline=None)
    def test_levels_follow_projection_on_average(self, pts, theta):
        """Downstream levels sit (weakly) further along the sweep
        direction: mean projection is nondecreasing with level for the
        first vs last level."""
        mesh = Mesh.from_delaunay(pts)
        w = np.array([np.cos(theta), np.sin(theta)])
        g = build_instance(mesh, w[None]).dags[0]
        if g.num_levels() < 2 or g.num_edges == 0:
            return
        proj = mesh.centroids @ w
        levels = g.levels()
        assert proj[levels[0]].mean() <= proj[levels[-1]].mean() + 1e-9
