"""Experiment configuration dataclasses.

One :class:`ExperimentConfig` describes a full grid: a mesh, a direction
count, processor counts, block sizes, algorithms, and seeds.  The
defaults are scaled-down versions of the paper's setups (Section 5) so
they run in seconds; pass larger ``target_cells`` to approach the paper's
31k–118k-cell meshes.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ExperimentConfig"]

#: Processor counts mirroring the paper's sweep (it goes to 128–512).
DEFAULT_M_VALUES = (2, 4, 8, 16, 32, 64, 128)


@dataclass(frozen=True)
class ExperimentConfig:
    """A full experiment grid.

    Attributes
    ----------
    mesh:
        Generator name from :data:`repro.mesh.MESH_GENERATORS`.
    target_cells:
        Approximate cell count of the generated mesh.
    k:
        Number of sweep directions (24 = the S4 set used in Fig. 2(a,b)).
    m_values:
        Processor counts to sweep.
    block_sizes:
        Block sizes for the METIS-style partitioning; 1 = per-cell
        assignment (the pure algorithm).
    algorithms:
        Registry names (see :mod:`repro.heuristics.registry`).
    seeds:
        Random seeds; results are averaged over them.
    mesh_seed:
        Seed for mesh generation (kept separate so the mesh stays fixed
        while scheduling randomness varies).
    engine:
        List-scheduling engine forwarded to every algorithm
        (``"heap"``, ``"vector"``, or ``"auto"`` — see
        :mod:`repro.core.list_scheduler`).
    workers:
        Default process count for :func:`repro.experiments.runner.run_grid`:
        ``1`` runs serially, ``N > 1`` dispatches over ``N`` workers
        sharing the instance via :mod:`repro.parallel`, and ``0`` means
        one worker per CPU (``os.cpu_count()``).  Output is bit-identical
        across all settings.
    """

    mesh: str = "tetonly"
    target_cells: int = 2000
    k: int = 24
    m_values: tuple = DEFAULT_M_VALUES
    block_sizes: tuple = (1,)
    algorithms: tuple = ("random_delay_priority",)
    seeds: tuple = (0, 1, 2)
    mesh_seed: int = 0
    engine: str = "auto"
    workers: int = 1

