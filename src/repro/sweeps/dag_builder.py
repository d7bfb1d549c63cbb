"""Building per-direction sweep DAGs from a mesh (paper Section 3).

For a direction ``w`` and adjacent cells ``(u, v)`` sharing a face with
unit normal ``n`` (oriented u→v), the upwind test is the sign of
``n . w``:

* ``n . w > 0`` — flux flows from ``u`` into ``v``: edge ``u -> v``;
* ``n . w < 0`` — edge ``v -> u``;
* ``|n . w| <= tol`` — the face is parallel to the sweep; no constraint.

The induced digraph is acyclic for Delaunay meshes; for general meshes
:func:`repro.sweeps.cycle_breaking.break_cycles` removes back-edges along
the centroid projection (the paper's "otherwise we break the cycles").
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.core.dag import Dag, batch_csr_from_edges
from repro.core.instance import SweepInstance
from repro.mesh.mesh import Mesh
from repro.sweeps.cycle_breaking import break_cycles
from repro.util.errors import InvalidInstanceError, MeshError

__all__ = ["sweep_edges", "build_instance", "build_instance_batched"]

#: Faces with |normal . direction| below this carry no flux constraint.
DEFAULT_TOL = 1e-12

#: Test seam (see ``tests/test_batched_builder.py``): set to
#: ``"skip_cycle_check"`` to break the acyclicity fast-path predicate —
#: every direction then skips Tarjan unconditionally, so a cyclic mesh
#: must be caught by the equivalence/validation battery.  Inert in
#: production (always ``None`` outside the mutation tests).
_MUTATION: str | None = None


def sweep_edges(mesh: Mesh, direction: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Directed edge array induced on ``mesh`` by one sweep direction."""
    direction = np.asarray(direction, dtype=np.float64)
    if direction.shape != (mesh.dim,):
        raise MeshError(
            f"direction has shape {direction.shape}, expected ({mesh.dim},)"
        )
    if mesh.n_faces == 0:
        return np.empty((0, 2), dtype=np.int64)
    dots = mesh.face_normals @ direction
    fwd = dots > tol
    bwd = dots < -tol
    edges = np.concatenate(
        [mesh.adjacency[fwd], mesh.adjacency[bwd][:, ::-1]], axis=0
    )
    return np.ascontiguousarray(edges)


def build_instance(
    mesh: Mesh,
    directions: np.ndarray,
    tol: float = DEFAULT_TOL,
    name: str | None = None,
) -> SweepInstance:
    """Assemble the full sweep-scheduling instance for a direction set.

    Builds all ``k`` direction DAGs in four batched phases:

    1. **edges** — one ``face_normals @ directions.T`` product gives all
       ``n_faces x k`` upwind signs; every per-direction edge array is
       assembled into one shared ``(sum E_i, 2)`` buffer with the exact
       ``concat(adjacency[fwd], adjacency[bwd][:, ::-1])`` layout of
       :func:`sweep_edges`.
    2. **csr** — one stable argsort builds every DAG's successor CSR
       (:func:`repro.core.dag.batch_csr_from_edges`).
    3. **levels** — the union DAG's frontier sweep
       (:meth:`SweepInstance.task_levels`) levels every direction at
       once, so downstream priority setup is a cache hit.
    4. **cycle check** — the Kahn frontier sweep of phase 3 *is* the
       acyclicity certificate: a direction whose slice of the union
       levels has no negative entry is acyclic, and on an acyclic
       digraph :func:`break_cycles` provably returns its input
       unchanged, so the Tarjan SCC pass is skipped
       (``build.tarjan_skipped`` counts these).  Every Delaunay
       direction takes this path (Edelsbrunner's acyclicity theorem),
       as does every generated mesh.  A slice with a negative level
       means a genuine cycle — possible on meshes read by
       :func:`repro.mesh.io.load_mesh` — and those directions, and only
       those, fall back to :func:`break_cycles` with the
       centroid-projection order key, then phases 2–3 rerun.  (Ranking
       cells by ``centroid . w`` and testing "every edge forward" is
       *not* a usable certificate: on Delaunay meshes ~25% of upwind
       edges run backward in projection order while the digraph is still
       acyclic.)

    Raises :class:`~repro.util.errors.InvalidInstanceError` if any
    direction is still cyclic after phase 4 — impossible unless the
    cycle detection is broken (the mutation battery's tripwire).
    """
    directions = np.asarray(directions, dtype=np.float64)
    if directions.ndim != 2 or directions.shape[1] != mesh.dim:
        raise MeshError(
            f"directions must be (k, {mesh.dim}); got {directions.shape}"
        )
    k = int(directions.shape[0])
    n = mesh.n_cells
    with obs.span(
        "build.edges",
        cat="build",
        args_fn=lambda: {"k": k, "n_faces": mesh.n_faces},
    ):
        if mesh.n_faces:
            dots = mesh.face_normals @ directions.T
            fwd = dots > tol
            bwd = dots < -tol
        else:
            fwd = bwd = np.zeros((0, k), dtype=bool)
        n_fwd = fwd.sum(axis=0).astype(np.int64)
        counts = n_fwd + bwd.sum(axis=0).astype(np.int64)
        starts = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        edges_all = np.empty((int(starts[k]), 2), dtype=np.int64)
        for i in range(k):
            block = edges_all[starts[i] : starts[i + 1]]
            nf = int(n_fwd[i])
            block[:nf] = mesh.adjacency[fwd[:, i]]
            block[nf:] = mesh.adjacency[bwd[:, i]][:, ::-1]

    def _assemble(flat, counts) -> SweepInstance:
        bounds = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        with obs.span(
            "build.csr",
            cat="build",
            args_fn=lambda: {"edges": int(flat.shape[0])},
        ):
            csrs = batch_csr_from_edges(n, flat, counts)
        dags = []
        for i in range(k):
            g = Dag(n, flat[bounds[i] : bounds[i + 1]], validate=False)
            g._succ_off, g._succ_tgt = csrs[i]
            dags.append(g)
        inst = SweepInstance(
            n,
            dags,
            cell_graph_edges=mesh.adjacency,
            name=name or f"{mesh.name}_k{k}",
        )
        with obs.span("build.levels", cat="build"):
            inst.task_levels()
        return inst

    inst = _assemble(edges_all, counts)
    with obs.span("build.cycle_check", cat="build"):
        stalled = (inst.task_levels().reshape(k, n) < 0).any(axis=1)
        cyclic = np.flatnonzero(stalled).tolist()
        if _MUTATION == "skip_cycle_check":
            cyclic = []
        obs.inc("build.tarjan_skipped", k - len(cyclic))
        if cyclic:
            proj = mesh.centroids @ directions[cyclic].T
            repaired = [g.edges for g in inst.dags]
            for col, i in enumerate(cyclic):
                repaired[i], _removed = break_cycles(
                    n, repaired[i], order_key=proj[:, col]
                )
            counts = np.array([e.shape[0] for e in repaired], dtype=np.int64)
            edges_all = np.concatenate(repaired, axis=0)
    if cyclic:
        inst = _assemble(edges_all, counts)
    if inst.task_levels().min(initial=0) < 0:
        bad = next(i for i, g in enumerate(inst.dags) if g.num_levels() == -1)
        raise InvalidInstanceError(
            f"direction {bad}: graph contains a cycle after the "
            "acyclicity fast path — the cycle-check certificate is broken"
        )
    return inst


#: The batched builder's former name, still imported by the benchmark
#: harness under ``perfbench/``.
build_instance_batched = build_instance
