"""Locality-aware parallel dispatch of experiment grids.

Replaces the old flat ``ProcessPoolExecutor.map(..., chunksize=1)`` fan-out
(one IPC round trip per cell, every worker rebuilding the instance) with a
three-stage plan:

1. **Batch** — the grid's cells are grouped into :class:`CellBatch`\\ es,
   one per output row (all seeds of one ``(algorithm, block size, m)``
   config), so a row's seeds never straddle workers and each batch is one
   IPC round trip.
2. **Chunk** — batches are grouped by block size (locality: one partition
   labelling per chunk) and packed into chunks sized by a cheap cost
   model (``n_tasks`` work units per cell) so the pool sees
   ``~_CHUNKS_PER_WORKER`` chunks per worker: few enough to amortise
   dispatch overhead, many enough to load-balance.
3. **Dispatch** — chunks run on the process-wide resident pool
   (:mod:`repro.parallel.pool`), whose workers :func:`attach
   <repro.parallel.shm_store.attach>` to the parent's
   :class:`~repro.parallel.shm_store.SharedInstanceStore` (zero-copy, no
   rebuild).  Results stream back as ``(cell index, summary)`` pairs the
   moment each chunk completes — keyed, not positional, so a reordering
   bug mis-assigning rows is structurally impossible — and the store is
   unlinked in a ``finally`` even when a worker raises mid-grid.

Every cell's randomness is a function of its seed alone, so the output is
bit-identical to the serial runner's no matter how cells land on workers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

__all__ = [
    "GridCell",
    "CellBatch",
    "DispatchStats",
    "grid_cells",
    "plan_batches",
    "plan_chunks",
    "run_dispatch",
    "process_peak_rss_mb",
]

#: Chunk-count target per worker: the adaptive chunk size aims for this
#: many chunks on each worker — oversubscription for load balance without
#: per-cell IPC.
_CHUNKS_PER_WORKER = 4


@dataclass(frozen=True)
class GridCell:
    """One (algorithm, m, block size, seed) cell, tagged with its grid index."""

    index: int
    algorithm: str
    m: int
    block_size: int
    seed: object


@dataclass(frozen=True)
class CellBatch:
    """All seed-cells of one output row (one ``(algorithm, block, m)``)."""

    row: int
    block_size: int
    cells: tuple


@dataclass
class DispatchStats:
    """Observability counters for one dispatched grid.

    The ``*_s`` fields are the bench report's per-phase split, each the
    ``.elapsed`` of its ``obs.timed`` span: ``warm_s`` (``grid.warm``),
    ``plan_s`` (``grid.plan``), ``publish_s`` (``grid.publish``),
    ``dispatch_s`` (``grid.execute``: pool acquisition, with any spawn,
    through last result), and ``wait_s`` — the in-order sum of the
    ``grid.wait`` spans, i.e. aggregation stalls.
    """

    workers: int = 0
    n_cells: int = 0
    n_chunks: int = 0
    peak_worker_rss_mb: float = 0.0
    chunk_cells: list = field(default_factory=list)
    warm_s: float = 0.0
    plan_s: float = 0.0
    publish_s: float = 0.0
    dispatch_s: float = 0.0
    wait_s: float = 0.0

    def phases(self) -> dict:
        """The per-phase breakdown as the bench schema's ``phases`` dict."""
        return {
            "warm_s": self.warm_s,
            "plan_s": self.plan_s,
            "publish_s": self.publish_s,
            "dispatch_s": self.dispatch_s,
            "wait_s": self.wait_s,
        }


def grid_cells(config) -> list:
    """Enumerate the grid in the canonical (row-major) serial order.

    The index of each cell is its position in this enumeration; rows are
    consecutive runs of ``len(config.seeds)`` cells.  This order is the
    determinism contract: serial and parallel runs aggregate by these
    indices, never by arrival order.
    """
    cells = []
    index = 0
    for algorithm in config.algorithms:
        for block_size in config.block_sizes:
            for m in config.m_values:
                for seed in config.seeds:
                    cells.append(
                        GridCell(index, algorithm, m, block_size, seed)
                    )
                    index += 1
    return cells


def plan_batches(config, cells: list | None = None) -> list:
    """Group cells into one :class:`CellBatch` per output row.

    With ``cells=None`` the full grid of ``config`` is enumerated and
    rows are the consecutive ``len(config.seeds)``-cell runs.  An
    explicit ``cells`` list (the campaign plane's resume path, where
    only *unfinished* cells are dispatched) is instead split on row
    identity — maximal consecutive runs sharing
    ``(algorithm, block size, m)`` — so partial rows batch correctly.
    """
    if cells is None:
        cells = grid_cells(config)
        n_seeds = max(len(config.seeds), 1)
        batches = []
        for row, i in enumerate(range(0, len(cells), n_seeds)):
            group = tuple(cells[i : i + n_seeds])
            batches.append(CellBatch(row, group[0].block_size, group))
        return batches
    batches = []
    group: list = []
    for cell in cells:
        identity = (cell.algorithm, cell.block_size, cell.m)
        if group and identity != (
            group[0].algorithm, group[0].block_size, group[0].m
        ):
            batches.append(CellBatch(len(batches), group[0].block_size,
                                     tuple(group)))
            group = []
        group.append(cell)
    if group:
        batches.append(CellBatch(len(batches), group[0].block_size,
                                 tuple(group)))
    return batches


def plan_chunks(batches: list, workers: int, cell_cost: int) -> list:
    """Pack row-batches into locality-aware, cost-balanced chunks.

    Batches are ordered by block size (so a chunk touches one partition
    labelling) and greedily packed until a chunk reaches the adaptive
    cost target ``total_cost / (workers * _CHUNKS_PER_WORKER)``.  A chunk
    never mixes block sizes and never splits a batch.
    """
    if not batches:
        return []
    cell_cost = max(int(cell_cost), 1)
    total = sum(len(b.cells) for b in batches) * cell_cost
    target = max(total // max(workers * _CHUNKS_PER_WORKER, 1), 1)
    ordered = sorted(batches, key=lambda b: b.block_size)  # stable: row order kept
    chunks: list[list] = []
    current: list = []
    current_cost = 0
    current_block = None
    for batch in ordered:
        cost = len(batch.cells) * cell_cost
        if current and (
            batch.block_size != current_block or current_cost + cost > target
        ):
            chunks.append(current)
            current, current_cost = [], 0
        current.append(batch)
        current_cost += cost
        current_block = batch.block_size
    if current:
        chunks.append(current)
    return chunks


def process_peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (``VmHWM``).

    Reads ``/proc/self/status`` where available and falls back to
    ``resource.getrusage``; returns 0.0 if neither works.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is KiB on Linux, bytes on macOS.
        return peak / 1024.0 if peak < 1 << 40 else peak / (1 << 20)
    except Exception:
        return 0.0


def run_dispatch(
    config,
    with_comm: bool,
    workers: int,
    sink,
    stats: DispatchStats | None = None,
    cells: list | None = None,
) -> None:
    """Run a grid on ``workers`` processes over a shared store.

    ``sink(index, summary)`` is called for every cell as its chunk
    completes (arrival order; the keyed index carries the determinism).
    The shared segment is unlinked before returning, on success and on
    failure alike — a worker exception propagates *after* cleanup.

    By default the full grid of ``config`` runs; ``cells`` dispatches an
    explicit :class:`GridCell` list instead (the campaign executor's
    streaming hook: only unfinished cells, pre-indexed by the caller,
    while ``config`` still provides the instance, block sizes, engine,
    and warm-up algorithm set).
    """
    from concurrent.futures import FIRST_COMPLETED, wait

    from repro import obs
    from repro.experiments.runner import get_grid_inputs
    from repro.parallel.pool import shared_pool
    from repro.parallel.shm_store import SharedInstanceStore
    from repro.parallel.worker import run_chunk, warm_instance

    if stats is None:
        stats = DispatchStats()
    cpu_count = os.cpu_count() or 1
    if workers > cpu_count:  # never clamped, but never silent either
        obs.inc("parallel.oversubscribed")
    with obs.span(
        "grid.dispatch",
        cat="parallel",
        args_fn=lambda: {"workers": workers, "cpu_count": cpu_count,
                         "oversubscribed": workers > cpu_count,
                         "n_chunks": stats.n_chunks},
    ):
        inst, blocks = get_grid_inputs(config, config.block_sizes)
        with obs.timed("grid.warm", cat="parallel") as t_warm:
            warm_instance(inst, config.algorithms)
        stats.warm_s = t_warm.elapsed
        with obs.timed("grid.plan", cat="parallel") as t_plan:
            batches = plan_batches(config, cells=cells)
            chunks = plan_chunks(batches, workers, cell_cost=inst.n_tasks)
        stats.plan_s = t_plan.elapsed
        stats.workers = workers
        stats.n_cells = sum(len(b.cells) for b in batches)
        stats.n_chunks = len(chunks)
        stats.chunk_cells = [sum(len(b.cells) for b in c) for c in chunks]

        with obs.timed("grid.publish", cat="parallel") as t_pub:
            store = SharedInstanceStore.publish(inst, blocks=blocks)
        stats.publish_s = t_pub.elapsed
        with store:
            with obs.timed("grid.execute", cat="parallel") as t_exec:
                pool = shared_pool().executor(workers)
                pending = {
                    pool.submit(
                        run_chunk,
                        store.manifest,
                        tuple(c for b in chunk for c in b.cells),
                        with_comm,
                        config.engine,
                        obs.tracing_enabled(),
                    )
                    for chunk in chunks
                }
                try:
                    while pending:
                        with obs.timed("grid.wait", cat="parallel") as t_wait:
                            done, pending = wait(
                                pending, return_when=FIRST_COMPLETED
                            )
                        stats.wait_s += t_wait.elapsed
                        for future in done:
                            pairs, worker_rss, payload = future.result()
                            obs.ingest_payload(payload)
                            stats.peak_worker_rss_mb = max(
                                stats.peak_worker_rss_mb, worker_rss
                            )
                            for index, summary in pairs:
                                sink(index, summary)
                except BaseException as exc:
                    # A failing worker drains its span buffer onto the
                    # exception before it pickles back; rescue it so the
                    # failure path loses no trace data.
                    obs.recover_payload_from_exception(exc)
                    for future in pending:
                        future.cancel()
                    raise
            stats.dispatch_s = t_exec.elapsed
        obs.gauge_max("parallel.peak_worker_rss_mb", stats.peak_worker_rss_mb)
