"""Equivalence lockdown for the sweep instance builder.

:func:`repro.sweeps.build_instance` builds every direction DAG in one
batched pass and levels them all with one union-DAG frontier sweep.  It
must be **bit-identical** to the per-direction reference kept here
(:func:`reference_instance`: one :func:`sweep_dag` per direction, each
through Tarjan cycle breaking and the DAG's own level pass, the way
``np.unique`` is kept as the oracle of ``unique_pairs``) — same edge
arrays in the same order, same CSR, same levels/topo orders — while
skipping the Tarjan SCC pass whenever the direction is acyclic.  This
battery locks that contract four ways:

* exhaustive structural comparison on every mesh family (plus frozen
  golden checksums, so drift against *history* is caught even if both
  paths drift together);
* a hypothesis property over random Delaunay meshes and direction sets;
* an acyclicity property: no generated mesh ever reaches cycle breaking
  (``build.tarjan_skipped == k``), while a genuinely cyclic mesh loaded
  from disk does;
* a mutation test: breaking the fast-path predicate (the
  ``_MUTATION = "skip_cycle_check"`` seam) on a cyclic mesh must be
  caught by the builder's post-check — if that tripwire ever goes
  quiet, the fast path could silently ship cyclic "DAGs".
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import SweepInstance
from repro.core.dag import Dag
from repro.mesh import Mesh
from repro.mesh.generators import MESH_GENERATORS, make_mesh, mesh_dim
from repro.mesh.io import load_mesh, save_mesh
from repro.sweeps import (
    break_cycles,
    build_instance,
    directions_for_mesh,
    sweep_edges,
)
from repro.sweeps import dag_builder
from repro.sweeps.dag_builder import DEFAULT_TOL
from repro.util.errors import InvalidInstanceError, MeshError

#: Frozen golden checksums (crc32 over concatenated per-direction edge
#: arrays + task_levels) at 200 target cells, seed 0, k=8 directions.
#: Both construction paths must reproduce these exactly.
_INSTANCE_GOLD = {
    "graded": 3233559384,
    "long": 3042950856,
    "prismtet": 412897267,
    "square2d": 1934557786,
    "tetonly": 1530540627,
    "well_logging": 3202847548,
}


def sweep_dag(mesh: Mesh, direction: np.ndarray, tol: float = DEFAULT_TOL) -> Dag:
    """Reference: one direction's DAG, always through Tarjan cycle breaking."""
    edges = sweep_edges(mesh, direction, tol=tol)
    projection = mesh.centroids @ np.asarray(direction, dtype=np.float64)
    edges, _removed = break_cycles(mesh.n_cells, edges, order_key=projection)
    return Dag(mesh.n_cells, edges)


def reference_instance(mesh: Mesh, directions: np.ndarray) -> SweepInstance:
    """Reference: the per-direction builder loop, one DAG at a time."""
    directions = np.asarray(directions, dtype=np.float64)
    dags = [sweep_dag(mesh, w) for w in directions]
    return SweepInstance(
        mesh.n_cells,
        dags,
        cell_graph_edges=mesh.adjacency,
        name=f"{mesh.name}_k{directions.shape[0]}",
    )


def _instance_blob(inst) -> bytes:
    return (
        b"".join(g.edges.tobytes() for g in inst.dags)
        + inst.task_levels().tobytes()
    )


def _assert_instances_identical(a, b) -> None:
    """Structural bit-identity: edges, CSR, levels, topo, task_levels.

    ``a`` is the reference: its DAGs level themselves, so ``b``'s
    union-DAG levels are checked against per-direction passes.
    """
    assert a.n_cells == b.n_cells and a.k == b.k
    for ga, gb in zip(a.dags, b.dags):
        assert np.array_equal(ga.edges, gb.edges)
        off_a, tgt_a = ga.successor_csr()
        off_b, tgt_b = gb.successor_csr()
        assert np.array_equal(off_a, off_b)
        assert np.array_equal(tgt_a, tgt_b)
        assert ga.num_levels() == gb.num_levels()
        assert np.array_equal(ga.level_of(), gb.level_of())
        assert np.array_equal(ga.topological_order(), gb.topological_order())
    own = np.concatenate([g.level_of() for g in a.dags])
    assert np.array_equal(own, b.task_levels())


def cyclic_triangle_mesh() -> Mesh:
    """Three cells in a rotational flow: every +x face normal has a
    positive x-component, so direction ``(1, 0)`` induces the 3-cycle
    ``0 -> 1 -> 2 -> 0`` and forces the cycle-breaking fallback."""
    angles = np.deg2rad([10.0, 20.0, 30.0])
    normals = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    mesh = Mesh(
        points=np.empty((0, 2)),
        cells=None,
        adjacency=np.array([[0, 1], [1, 2], [2, 0]], dtype=np.int64),
        face_normals=normals,
        centroids=np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]]),
        name="cyclic_triangle",
    )
    mesh.validate()
    return mesh


@pytest.fixture
def cyclic_mesh(tmp_path) -> Mesh:
    """:func:`cyclic_triangle_mesh` after a ``save_mesh``/``load_mesh``
    round trip: loaded meshes are the path that reaches cycle breaking."""
    path = tmp_path / "cyclic.npz"
    save_mesh(cyclic_triangle_mesh(), path)
    return load_mesh(path)


class TestFamilyEquivalence:
    @pytest.mark.parametrize("family", sorted(MESH_GENERATORS))
    def test_bit_identical_to_seed_path(self, family):
        mesh = make_mesh(family, target_cells=200, seed=0)
        dirs = directions_for_mesh(mesh_dim(family), 8)
        _assert_instances_identical(
            reference_instance(mesh, dirs), build_instance(mesh, dirs)
        )

    @pytest.mark.parametrize("family", sorted(_INSTANCE_GOLD))
    def test_golden_instance_checksum(self, family):
        mesh = make_mesh(family, target_cells=200, seed=0)
        dirs = directions_for_mesh(mesh_dim(family), 8)
        inst = build_instance(mesh, dirs)
        assert zlib.crc32(_instance_blob(inst)) == _INSTANCE_GOLD[family]

    def test_prebuilt_task_levels_match_lazy(self):
        """The builder levels every direction through the union DAG at
        build time; those levels equal what each direction DAG computes
        for itself from scratch."""
        mesh = make_mesh("tetonly", target_cells=200, seed=0)
        dirs = directions_for_mesh(3, 8)
        built = build_instance(mesh, dirs)
        assert built._union_dag is not None
        assert built._union_dag._level_of is not None
        lazy = reference_instance(mesh, dirs)
        own = np.concatenate([g.level_of() for g in lazy.dags])
        assert np.array_equal(built.task_levels(), own)

    def test_name_and_cell_graph(self):
        mesh = make_mesh("tetonly", target_cells=120, seed=0)
        dirs = directions_for_mesh(3, 4)
        inst = build_instance(mesh, dirs)
        assert inst.name.endswith("_k4")
        assert np.array_equal(inst.cell_graph_edges, mesh.adjacency)
        named = build_instance(mesh, dirs, name="custom")
        assert named.name == "custom"

    def test_rejects_wrong_direction_dim(self):
        mesh = make_mesh("tetonly", target_cells=120, seed=0)
        with pytest.raises(MeshError, match="directions"):
            build_instance(mesh, np.ones((4, 2)))

    def test_zero_directions_rejected_like_seed_path(self):
        mesh = make_mesh("tetonly", target_cells=120, seed=0)
        with pytest.raises(InvalidInstanceError, match="at least one"):
            reference_instance(mesh, np.empty((0, 3)))
        with pytest.raises(InvalidInstanceError, match="at least one"):
            build_instance(mesh, np.empty((0, 3)))


class TestRandomEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**16 - 1),
        n_pts=st.integers(12, 60),
        k=st.integers(1, 6),
        dim=st.sampled_from([2, 3]),
    )
    def test_random_delaunay_bit_identical(self, seed, n_pts, k, dim):
        rng = np.random.default_rng(seed)
        mesh = Mesh.from_delaunay(rng.random((n_pts, dim)), name="rand")
        dirs = directions_for_mesh(dim, 2 * ((k + 1) // 2) * (dim - 1))[:k]
        if dirs.shape[0] == 0:
            return
        _assert_instances_identical(
            reference_instance(mesh, dirs), build_instance(mesh, dirs)
        )


class TestCycleFallback:
    def test_cyclic_mesh_matches_seed_path(self, cyclic_mesh):
        """A mesh that defeats the fast path falls back to break_cycles
        and still matches the per-direction reference bit-for-bit."""
        mesh = cyclic_mesh
        dirs = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        _assert_instances_identical(
            reference_instance(mesh, dirs), build_instance(mesh, dirs)
        )

    def test_cyclic_direction_is_acyclic_after_fallback(self, cyclic_mesh):
        mesh = cyclic_mesh
        inst = build_instance(mesh, np.array([[1.0, 0.0]]))
        assert inst.dags[0].num_levels() >= 1
        # break_cycles dropped at least one of the three cycle edges.
        assert inst.dags[0].edges.shape[0] < 3

    def test_mutation_breaking_fast_path_is_caught(self, cyclic_mesh, monkeypatch):
        """The mutation battery's tripwire: force every direction down
        the skip-Tarjan path on a cyclic mesh; the builder's post-check
        must refuse to return a cyclic 'DAG'."""
        monkeypatch.setattr(dag_builder, "_MUTATION", "skip_cycle_check")
        with pytest.raises(InvalidInstanceError, match="cycle-check"):
            build_instance(cyclic_mesh, np.array([[1.0, 0.0]]))

    def test_mutation_is_inert_on_acyclic_meshes(self, monkeypatch):
        """Armed on a genuinely acyclic mesh the mutation changes
        nothing: the fast path was going to be taken anyway."""
        mesh = make_mesh("square2d", target_cells=60, seed=0)
        dirs = directions_for_mesh(2, 4)
        reference = build_instance(mesh, dirs)
        monkeypatch.setattr(dag_builder, "_MUTATION", "skip_cycle_check")
        _assert_instances_identical(
            reference, build_instance(mesh, dirs)
        )


def _tarjan_skipped(mesh: Mesh, dirs: np.ndarray) -> int:
    """``build.tarjan_skipped`` of one build (tracing on just for it)."""
    was = obs.tracing_enabled()
    obs.enable_tracing()
    obs.drain_metrics()
    try:
        build_instance(mesh, dirs)
        return obs.drain_metrics()["counters"].get("build.tarjan_skipped", 0)
    finally:
        if not was:
            obs.disable_tracing()


class TestAcyclicity:
    """Generated meshes never reach cycle breaking; loaded meshes can.

    Delaunay complexes are acyclic in every view direction
    (Edelsbrunner's acyclicity theorem) and conforming 2-D
    triangulations are always sweepable (Camminady & Frank,
    arXiv 1806.08004), so every direction of every generator takes the
    skip-Tarjan path.  Cycle breaking is the fallback for meshes read
    from disk, kept guarded by a genuinely cyclic one.
    """

    @settings(max_examples=30, deadline=None)
    @given(
        family=st.sampled_from(sorted(MESH_GENERATORS)),
        cells=st.integers(300, 500),
        seed=st.integers(0, 2**16 - 1),
        k=st.integers(1, 24),
    )
    def test_generated_meshes_never_break_cycles(self, family, cells, seed, k):
        mesh = make_mesh(family, target_cells=cells, seed=seed)
        dirs = np.random.default_rng(seed).normal(size=(k, mesh.dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        assert _tarjan_skipped(mesh, dirs) == k

    def test_loaded_cyclic_mesh_reaches_cycle_breaking(self, cyclic_mesh):
        # (1, 0) and (-1, 0) induce the 3-cycle; the direction at 110
        # degrees orients the first and last face into cell 0 and leaves
        # the middle face (normal at 20 degrees) unconstrained: acyclic.
        angle = np.deg2rad(110.0)
        dirs = np.array([[1.0, 0.0], [-1.0, 0.0], [np.cos(angle), np.sin(angle)]])
        assert _tarjan_skipped(cyclic_mesh, dirs) == 1


class TestObsInstrumentation:
    @pytest.fixture
    def traced(self):
        was = obs.tracing_enabled()
        obs.enable_tracing()
        obs.reset()
        yield
        obs.reset()
        if not was:
            obs.disable_tracing()

    def test_tarjan_skipped_counter(self, traced):
        mesh = make_mesh("tetonly", target_cells=120, seed=0)
        dirs = directions_for_mesh(3, 8)
        build_instance(mesh, dirs)
        metrics = obs.drain_metrics()
        # Delaunay meshes are acyclic in every direction: all k skip.
        assert metrics["counters"]["build.tarjan_skipped"] == dirs.shape[0]

    def test_build_spans_emitted(self, traced):
        mesh = make_mesh("tetonly", target_cells=120, seed=0)
        build_instance(mesh, directions_for_mesh(3, 4))
        names = {s.name for s in obs.drain_spans()}
        assert {
            "build.edges", "build.cycle_check", "build.csr", "build.levels"
        } <= names
