"""Experiment runner: builds instances, sweeps grids, collects rows.

Meshes, instances, and block partitions are memoised per process — the
grid sweeps in the figure reproductions reuse one instance across dozens
of (algorithm, m, seed) cells, and the partitioner output across all
seeds, exactly like the paper's setup ("we first do the same block
assignment").  Instances are built by
:func:`repro.sweeps.dag_builder.build_instance` and — when
``REPRO_CACHE_DIR`` is set — cached *across* processes by the
content-addressed build cache (:mod:`repro.cache`), so bench, grid, and
campaign reruns warm-start construction.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro import obs
from repro.analysis.metrics import ScheduleSummary, summarize_schedule
from repro.core.assignment import block_assignment
from repro.experiments.configs import ExperimentConfig
from repro.heuristics.registry import get_algorithm
from repro.mesh.generators import make_mesh, mesh_dim
from repro.partition.multilevel import partition_mesh_blocks
from repro.sweeps.dag_builder import DEFAULT_TOL, build_instance
from repro.sweeps.directions import directions_for_mesh
from repro.util.rng import spawn_rngs

__all__ = [
    "get_instance",
    "load_or_build_instance",
    "get_blocks",
    "run_cell",
    "run_cell_on",
    "run_grid",
    "row_key",
    "aggregate_row",
    "resolve_workers",
    "clear_caches",
]


def row_key(algorithm: str, m: int, block_size: int) -> str:
    """Stable identity of one output row of a grid.

    Positional cell indices are an artifact of one enumeration; this key
    is a function of the row's parameters alone, so the grid runner, the
    parallel dispatcher's keyed aggregation, and the campaign result
    store (:mod:`repro.campaign`) all name the same row the same way.
    Every ``run_grid`` row carries it as ``row["row_key"]``.
    """
    return f"{algorithm}/b{block_size}/m{m}"


@lru_cache(maxsize=32)
def _mesh_cache(mesh: str, target_cells: int, mesh_seed: int):
    return make_mesh(mesh, target_cells=target_cells, seed=mesh_seed)


def load_or_build_instance(
    mesh: str, target_cells: int, mesh_seed: int, k: int,
    phases: dict | None = None,
):
    """One sweep instance, un-memoised: a disk-cache hit or a fresh build.

    The disk cache (:mod:`repro.cache`, on when ``$REPRO_CACHE_DIR`` is
    set) is keyed without the mesh, so a hit skips mesh generation; a
    build seeds it.  :func:`get_instance` memoises this; the serve
    registry calls it directly so an evicted instance is freed.
    ``phases``, if given, receives the ``mesh_s``/``build_s``/``cache_s``
    split, each the ``.elapsed`` of an ``instance.*`` timed interval.
    """
    from repro import cache as build_cache

    phases = {} if phases is None else phases
    phases.update(mesh_s=0.0, build_s=0.0, cache_s=0.0)
    key = None
    if build_cache.cache_dir() is not None:
        dirs = directions_for_mesh(mesh_dim(mesh), k)
        key = build_cache.instance_key(
            mesh, target_cells, mesh_seed, k, DEFAULT_TOL, dirs
        )
        with obs.timed("instance.cache_load", cat="build") as t:
            inst = build_cache.load_instance(key)
        phases["cache_s"] += t.elapsed
        if inst is not None:
            return inst
    with obs.timed("instance.mesh", cat="build") as t:
        m = _mesh_cache(mesh, target_cells, mesh_seed)
    phases["mesh_s"] = t.elapsed
    with obs.timed("instance.build", cat="build") as t:
        inst = build_instance(m, directions_for_mesh(m.dim, k))
    phases["build_s"] = t.elapsed
    if key is not None:
        with obs.timed("instance.cache_store", cat="build") as t:
            build_cache.store_instance(key, inst)
        phases["cache_s"] += t.elapsed
    return inst


@lru_cache(maxsize=32)
def _instance_cache(mesh: str, target_cells: int, mesh_seed: int, k: int):
    return load_or_build_instance(mesh, target_cells, mesh_seed, k)


@lru_cache(maxsize=64)
def _blocks_cache(mesh: str, target_cells: int, mesh_seed: int, block_size: int):
    m = _mesh_cache(mesh, target_cells, mesh_seed)
    return partition_mesh_blocks(m.n_cells, m.adjacency, block_size, seed=mesh_seed)


def clear_caches() -> None:
    """Drop all memoised meshes/instances/partitions."""
    _mesh_cache.cache_clear()
    _instance_cache.cache_clear()
    _blocks_cache.cache_clear()


def get_instance(config: ExperimentConfig):
    """The (memoised) sweep instance of a config."""
    return _instance_cache(
        config.mesh, config.target_cells, config.mesh_seed, config.k
    )


def get_blocks(config: ExperimentConfig, block_size: int) -> np.ndarray:
    """The (memoised) cell→block labelling for one block size."""
    return _blocks_cache(
        config.mesh, config.target_cells, config.mesh_seed, block_size
    )


def run_cell_on(
    inst,
    algorithm: str,
    m: int,
    block_size: int,
    seed,
    with_comm: bool = True,
    engine: str = "auto",
    blocks: np.ndarray | None = None,
) -> ScheduleSummary:
    """Run one grid cell against an already-built instance.

    The cell-execution core shared by the serial runner (which feeds it
    the memoised instance/blocks) and the parallel workers (which feed it
    zero-copy shared-memory views).  Randomness is a function of ``seed``
    alone, so both paths are bit-identical by construction.
    """
    algo = get_algorithm(algorithm)
    rngs = spawn_rngs(seed, 2)
    if block_size > 1:
        if blocks is None:
            raise ValueError(
                f"block_size={block_size} cell needs its cell->block labelling"
            )
        assignment = block_assignment(blocks, m, seed=rngs[0])
        schedule = algo(inst, m, seed=rngs[1], assignment=assignment, engine=engine)
    else:
        schedule = algo(inst, m, seed=rngs[1], engine=engine)
    return summarize_schedule(schedule, with_comm=with_comm)


def run_cell(
    config: ExperimentConfig,
    algorithm: str,
    m: int,
    block_size: int,
    seed,
    with_comm: bool = True,
) -> ScheduleSummary:
    """Run one (algorithm, m, block size, seed) cell of the grid."""
    return run_cell_on(
        get_instance(config),
        algorithm,
        m,
        block_size,
        seed,
        with_comm=with_comm,
        engine=config.engine,
        blocks=get_blocks(config, block_size) if block_size > 1 else None,
    )


def resolve_workers(workers: int | None, config: ExperimentConfig | None = None) -> int:
    """Effective worker count: explicit argument > config > serial.

    ``None`` defers to ``config.workers`` (serial without a config);
    ``0`` (from either source) means "one worker per CPU"
    (``os.cpu_count()``).  Larger counts are kept, not clamped; the
    dispatcher reports them as oversubscribed.
    """
    import os

    if workers is None:
        workers = config.workers if config is not None else 1
    if workers == 0:
        workers = os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers


def run_grid(
    config: ExperimentConfig,
    with_comm: bool = True,
    workers: int | None = None,
    stats=None,
) -> list[dict]:
    """Run the full grid; one averaged row per (algorithm, m, block size).

    Each row carries the mean over seeds of makespan / ratio / C1 / C2,
    plus the max ratio (the worst-case view the guarantees are about).

    ``workers > 1`` dispatches the grid over a process pool that shares
    the instance through :mod:`repro.parallel` (zero-copy shared memory,
    row-batched tasks) instead of rebuilding it per worker; ``workers=0``
    uses every CPU; ``None`` defers to ``config.workers``.  Results are
    bit-identical to the serial run for any worker count: every cell's
    randomness is a function of its seed alone, and aggregation is keyed
    by cell index — a dispatcher that reordered or dropped results fails
    loudly instead of mis-assigning rows.  ``stats`` (a
    :class:`repro.parallel.DispatchStats`, optional) is filled in on the
    parallel path for observability (chunk plan, peak worker RSS).
    """
    from repro.parallel.dispatcher import grid_cells

    workers = resolve_workers(workers, config)
    cells = grid_cells(config)
    n_seeds = len(config.seeds)
    n_rows = len(cells) // n_seeds if n_seeds else 0

    # Streaming keyed aggregation: buffer summaries per row, fold a row
    # the moment its last seed arrives, and free the buffer.  Row order
    # in the output is fixed by the cell indices, never arrival order.
    rows: list[dict | None] = [None] * n_rows
    pending: dict[int, dict[int, ScheduleSummary]] = {}

    def sink(index: int, summary: ScheduleSummary) -> None:
        row = index // n_seeds
        if not 0 <= row < n_rows:
            raise RuntimeError(f"dispatcher returned unknown cell index {index}")
        bucket = pending.setdefault(row, {})
        if index in bucket or rows[row] is not None:
            raise RuntimeError(f"dispatcher returned cell index {index} twice")
        bucket[index] = summary
        if len(bucket) == n_seeds:
            cell = cells[row * n_seeds]
            rows[row] = aggregate_row(
                [bucket[i] for i in sorted(bucket)],
                cell.algorithm,
                cell.m,
                cell.block_size,
            )
            del pending[row]

    if workers > 1 and len(cells) > 1:
        from repro.parallel.dispatcher import run_dispatch

        run_dispatch(config, with_comm, workers, sink, stats=stats)
    else:
        with obs.span(
            "grid.serial",
            cat="parallel",
            args_fn=lambda: {"cells": len(cells)},
        ):
            for cell in cells:
                sink(
                    cell.index,
                    run_cell(
                        config, cell.algorithm, cell.m, cell.block_size,
                        cell.seed, with_comm,
                    ),
                )

    missing = [row for row, agg in enumerate(rows) if agg is None]
    if missing:
        raise RuntimeError(
            f"grid dispatch lost {len(missing)} of {n_rows} rows "
            f"(first missing row {missing[0]})"
        )
    return rows


def aggregate_row(
    summaries: list[ScheduleSummary], algorithm, m, block_size
) -> dict:
    """Fold one row's per-seed summaries into the grid's output row.

    The one aggregation used by every results plane: the serial runner,
    the parallel dispatcher's keyed sink, and the campaign report
    (:mod:`repro.campaign.report`) all call it, so a stored campaign is
    byte-identical to a fresh ``run_grid`` by construction.  Each row
    carries its stable :func:`row_key` next to the parameters.
    """

    def mean(attr):
        return float(np.mean([getattr(s, attr) for s in summaries]))

    first = summaries[0]
    return {
        "row_key": row_key(algorithm, m, block_size),
        "algorithm": algorithm,
        "mesh": first.mesh,
        "n_cells": first.n_cells,
        "k": first.k,
        "m": m,
        "block_size": block_size,
        "lower_bound": first.lower_bound,
        "makespan": mean("makespan"),
        "makespan_max": float(max(s.makespan for s in summaries)),
        "ratio": mean("ratio"),
        "ratio_max": float(max(s.ratio for s in summaries)),
        "c1": mean("c1"),
        "c1_fraction": mean("c1_fraction"),
        "c2": mean("c2"),
        "idle_fraction": mean("idle_fraction"),
        "seeds": len(summaries),
    }
