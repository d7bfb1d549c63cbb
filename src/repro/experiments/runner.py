"""Experiment runner: builds instances, sweeps grids, collects rows.

A grid reuses one instance across its (algorithm, m, seed) cells and one
block labelling per block size, like the paper ("we first do the same
block assignment").  :func:`load_or_build` is the one path to both: a
hit in the disk cache (:mod:`repro.cache`, on when ``REPRO_CACHE_DIR``
is set) or a build that stores itself, with the mesh generated at most
once.  The grid drivers read it through one bounded per-process memo
(:func:`get_grid_inputs`, :func:`get_instance`, :func:`get_blocks`;
:func:`clear_caches`); the serve registry calls it directly, so an
evicted instance keeps nothing alive.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro import cache as build_cache
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
    "get_blocks",
    "get_grid_inputs",
    "load_or_build",
    "instance_cache_key",
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


def instance_cache_key(mesh: str, target_cells: int, mesh_seed: int, k: int) -> str:
    """The :mod:`repro.cache` key of a configuration's instance (and its
    serve-registry identity)."""
    dirs = directions_for_mesh(mesh_dim(mesh), k)
    return build_cache.instance_key(
        mesh, target_cells, mesh_seed, k, DEFAULT_TOL, dirs
    )


def load_or_build(
    mesh: str, target_cells: int, mesh_seed: int, k: int | None,
    block_sizes=(), phases: dict | None = None,
) -> tuple:
    """``(instance, {size: labels})`` for every block size > 1, un-memoised.

    Each product is a disk-cache hit or is built and stored; at most one
    mesh is generated, only on a miss.  Labels are partitioned with
    ``mesh_seed``; ``k=None`` skips the instance.  ``phases`` receives the
    ``mesh_s``/``build_s``/``cache_s`` split of the ``instance.*`` spans.
    """
    phases = {} if phases is None else phases
    phases.update(mesh_s=0.0, build_s=0.0, cache_s=0.0)
    sizes = sorted({int(s) for s in block_sizes if s > 1})
    inst, blocks, keys = None, {}, {}
    if build_cache.cache_dir() is not None:
        with obs.timed("instance.cache_load", cat="build") as t:
            for size in sizes:
                keys[size] = build_cache.blocks_key(mesh, target_cells, mesh_seed, size)
                labels = build_cache.load_blocks(keys[size])
                if labels is not None:
                    blocks[size] = labels
            if k is not None:
                keys[0] = instance_cache_key(mesh, target_cells, mesh_seed, k)
                inst = build_cache.load_instance(keys[0])
        phases["cache_s"] += t.elapsed
    build = k is not None and inst is None
    missing = [size for size in sizes if size not in blocks]
    if build or missing:
        with obs.timed("instance.mesh", cat="build") as t:
            m = make_mesh(mesh, target_cells=target_cells, seed=mesh_seed)
        phases["mesh_s"] = t.elapsed
        if build:
            with obs.timed("instance.build", cat="build") as t:
                inst = build_instance(m, directions_for_mesh(m.dim, k))
            phases["build_s"] = t.elapsed
        for size in missing:
            blocks[size] = partition_mesh_blocks(
                m.n_cells, m.adjacency, size, seed=mesh_seed
            )
        if keys:
            with obs.timed("instance.cache_store", cat="build") as t:
                if build:
                    build_cache.store_instance(keys[0], inst)
                for size in missing:
                    build_cache.store_blocks(keys[size], mesh, blocks[size], size)
            phases["cache_s"] += t.elapsed
    return inst, {size: blocks[size] for size in sizes}


#: Per-process LRU memo in front of :func:`load_or_build`, keyed
#: ``(mesh, target_cells, mesh_seed, "k", k)`` or ``(..., "block", size)``.
_memo: OrderedDict = OrderedDict()
_MEMO_ENTRIES = 64


def get_grid_inputs(config: ExperimentConfig, block_sizes) -> tuple:
    """The config's (memoised) instance and ``{size: labels}``; what the
    memo lacks comes from one :func:`load_or_build` call (one mesh)."""
    base = (config.mesh, config.target_cells, config.mesh_seed)
    keys = {size: (*base, "block", size) for size in block_sizes if size > 1}
    keys[0] = (*base, "k", config.k)  # slot 0: the instance
    missing = [size for size, key in keys.items() if key not in _memo]
    if missing:
        inst, built = load_or_build(
            *base, config.k if 0 in missing else None, missing
        )
        built[0] = inst
        _memo.update((keys[size], built[size]) for size in missing)
    out = {}
    for size, key in keys.items():
        _memo.move_to_end(key)
        out[size] = _memo[key]
    while len(_memo) > _MEMO_ENTRIES:
        _memo.popitem(last=False)
    return out.pop(0), out


def clear_caches() -> None:
    """Drop every memoised instance and labelling (the disk cache stays)."""
    _memo.clear()


def get_instance(config: ExperimentConfig):
    """The (memoised) sweep instance of a config; never partitions."""
    return get_grid_inputs(config, ())[0]


def get_blocks(config: ExperimentConfig, block_size: int) -> np.ndarray:
    """The (memoised) cell→block labelling for one block size > 1."""
    return get_grid_inputs(config, (block_size,))[1][block_size]


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
    """Run one (algorithm, m, block size, seed) cell of the grid; the first
    cell of a config fetches every labelling the config names."""
    inst, blocks = get_grid_inputs(config, (*config.block_sizes, block_size))
    return run_cell_on(
        inst,
        algorithm,
        m,
        block_size,
        seed,
        with_comm=with_comm,
        engine=config.engine,
        blocks=blocks.get(block_size),
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
