"""Synthetic mesh generators standing in for the paper's LANL meshes.

The paper evaluates on four unstructured tetrahedral meshes that are not
publicly distributable (``tetonly`` 31 481 cells, ``well_logging`` 43 012,
``long`` 61 737, ``prismtet`` 118 211).  Each generator here produces a
Delaunay tet mesh with the same geometric character at a configurable
cell count, exercising exactly the same code path (cells → face adjacency
→ per-direction upwind DAGs):

* :func:`tetonly_like` — tets filling a unit cube (generic compact mesh);
* :func:`well_logging_like` — a cylinder with a narrow axial bore
  removed, mimicking a well-logging tool geometry;
* :func:`long_like` — a 10:1:1 elongated bar (deep sweep levels);
* :func:`prismtet_like` — a box with two density regions, mimicking a
  mixed prism/tet mesh's hybrid grading.

``target_cells`` is approximate: Delaunay of ``P`` uniform points in 3-D
yields ≈ 6.7 P tets, and cell filtering (the bore) removes more, so the
generators overshoot the point count slightly and report the actual count
on the mesh.  Determinism: all generators take a ``seed``.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.mesh.mesh import Mesh
from repro.util.errors import MeshError
from repro.util.rng import as_rng

__all__ = [
    "tetonly_like",
    "well_logging_like",
    "long_like",
    "prismtet_like",
    "graded_box",
    "unit_square_tri",
    "MESH_GENERATORS",
    "make_mesh",
    "mesh_dim",
]

#: Average tets per Delaunay point for uniform samples in a 3-D volume.
_TETS_PER_POINT = 6.7


def _points_for(target_cells: int, fudge: float = 1.0) -> int:
    return max(16, int(round(target_cells * fudge / _TETS_PER_POINT)))


def tetonly_like(target_cells: int = 2000, seed=0) -> Mesh:
    """Unit-cube tetrahedral mesh (stands in for ``tetonly``)."""
    rng = as_rng(seed)
    pts = rng.random((_points_for(target_cells), 3))
    return Mesh.from_delaunay(pts, name="tetonly_like")


def long_like(target_cells: int = 2000, seed=0, aspect: float = 10.0) -> Mesh:
    """Elongated-bar mesh, ``aspect``:1:1 (stands in for ``long``).

    The elongation stretches sweep level counts along the long axis,
    which is what makes ``long`` the paper's deepest-pipeline mesh.
    """
    rng = as_rng(seed)
    pts = rng.random((_points_for(target_cells), 3))
    pts[:, 0] *= aspect
    return Mesh.from_delaunay(pts, name="long_like")


def well_logging_like(
    target_cells: int = 2000,
    seed=0,
    bore_radius: float = 0.25,
    outer_radius: float = 1.0,
    height: float = 2.0,
) -> Mesh:
    """Cylinder-with-bore mesh (stands in for ``well_logging``).

    Points are sampled uniformly in the annulus cross-section; Delaunay
    then tetrahedralises the convex hull (which spans the bore), and tets
    whose centroid falls inside the bore are filtered out, leaving a
    genuinely non-convex unstructured mesh.
    """
    if not 0 < bore_radius < outer_radius:
        raise MeshError(
            f"need 0 < bore_radius < outer_radius, got {bore_radius}, {outer_radius}"
        )
    rng = as_rng(seed)
    # Filtering removes roughly (bore/outer)^2 of the hull volume; oversample.
    n_pts = _points_for(target_cells, fudge=1.0 / (1.0 - (bore_radius / outer_radius) ** 2))
    # Uniform in annulus: r = sqrt(u * (R^2 - r0^2) + r0^2).
    u = rng.random(n_pts)
    r = np.sqrt(u * (outer_radius**2 - bore_radius**2) + bore_radius**2)
    theta = rng.random(n_pts) * 2 * np.pi
    z = rng.random(n_pts) * height
    pts = np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=1)

    def keep(centroids: np.ndarray) -> np.ndarray:
        rad = np.hypot(centroids[:, 0], centroids[:, 1])
        return rad >= bore_radius

    return Mesh.from_delaunay(pts, keep=keep, name="well_logging_like")


def prismtet_like(target_cells: int = 2000, seed=0, refine_ratio: float = 4.0) -> Mesh:
    """Two-density box mesh (stands in for the hybrid ``prismtet``).

    The lower half of the unit cube is sampled ``refine_ratio`` times more
    densely than the upper half, mimicking the grading of a mixed
    prism/tet mesh (fine prismatic boundary layer under a coarse bulk).
    """
    if refine_ratio <= 0:
        raise MeshError(f"refine_ratio must be positive, got {refine_ratio}")
    rng = as_rng(seed)
    n_pts = _points_for(target_cells)
    n_fine = int(n_pts * refine_ratio / (1.0 + refine_ratio))
    n_coarse = max(n_pts - n_fine, 8)
    fine = rng.random((n_fine, 3)) * np.array([1.0, 1.0, 0.5])
    coarse = rng.random((n_coarse, 3)) * np.array([1.0, 1.0, 0.5]) + np.array(
        [0.0, 0.0, 0.5]
    )
    pts = np.concatenate([fine, coarse], axis=0)
    return Mesh.from_delaunay(pts, name="prismtet_like")


def graded_box(
    target_cells: int = 2000,
    seed=0,
    focus=(0.5, 0.5, 0.5),
    refined_fraction: float = 0.5,
    spread: float = 0.15,
) -> Mesh:
    """Unit-cube mesh graded toward a focus point.

    Transport meshes concentrate cells near sources and detectors; this
    generator mixes uniform background points with a Gaussian cluster at
    ``focus`` (``refined_fraction`` of all points, width ``spread``),
    giving strongly non-uniform cell sizes — the regime where
    load-balance-by-cell-count (what all the schedulers assume) diverges
    most from balance-by-volume.
    """
    if not 0 <= refined_fraction < 1:
        raise MeshError(f"refined_fraction must lie in [0, 1), got {refined_fraction}")
    if spread <= 0:
        raise MeshError(f"spread must be positive, got {spread}")
    rng = as_rng(seed)
    n_pts = _points_for(target_cells)
    n_fine = int(n_pts * refined_fraction)
    base = rng.random((n_pts - n_fine, 3))
    cluster = rng.normal(loc=np.asarray(focus, dtype=np.float64),
                         scale=spread, size=(n_fine, 3))
    cluster = np.clip(cluster, 0.0, 1.0)
    pts = np.concatenate([base, cluster], axis=0)
    return Mesh.from_delaunay(pts, name="graded_box")


def unit_square_tri(target_cells: int = 200, seed=0) -> Mesh:
    """2-D triangular mesh of the unit square (Figure 1-style examples)."""
    rng = as_rng(seed)
    # Delaunay of P points in 2-D yields ≈ 2P triangles.
    n_pts = max(8, target_cells // 2)
    pts = rng.random((n_pts, 2))
    return Mesh.from_delaunay(pts, name="unit_square_tri")


#: Name → generator map used by the experiment harness and CLI examples.
MESH_GENERATORS = {
    "tetonly": tetonly_like,
    "well_logging": well_logging_like,
    "long": long_like,
    "prismtet": prismtet_like,
    "graded": graded_box,
    "square2d": unit_square_tri,
}


def make_mesh(name: str, target_cells: int = 2000, seed=0, **kwargs) -> Mesh:
    """Build a named mesh (see :data:`MESH_GENERATORS`)."""
    try:
        gen = MESH_GENERATORS[name]
    except KeyError:
        raise MeshError(
            f"unknown mesh {name!r}; known: {', '.join(MESH_GENERATORS)}"
        ) from None
    with obs.span(
        "mesh.generate",
        cat="mesh",
        args_fn=lambda: {"family": name, "n": target_cells},
    ):
        return gen(target_cells=target_cells, seed=seed, **kwargs)


def mesh_dim(name: str) -> int:
    """Spatial dimension of a named generator's meshes, without building.

    The build cache derives an instance's direction set (and hence its
    content key) before deciding whether the mesh must be constructed at
    all; every generator's dimension is fixed by its family, so the
    lookup is a constant.
    """
    if name not in MESH_GENERATORS:
        raise MeshError(
            f"unknown mesh {name!r}; known: {', '.join(MESH_GENERATORS)}"
        )
    return 2 if name == "square2d" else 3
