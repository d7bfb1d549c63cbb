"""Resumable campaign execution over the parallel grid plane.

:func:`run_campaign` is a *plan-then-execute* loop around the result
store: compile the spec to its hashed universe, ask the store which
cells lack a committed result (after a crash: exactly the unfinished
ones), group those by sweep instance so mesh/DAG construction is paid
once per group, and execute each group either serially (memoised
instance, one checkpoint per cell) or through the
:mod:`repro.parallel` dispatcher (shared-memory instance, ``workers``
processes of the resident pool; one checkpoint per streamed result).
Every checkpoint is an
atomic sqlite commit, so the run survives ``SIGKILL`` at any instant —
a rerun re-executes only the cells that had not committed.

Crash injection (test hook)
---------------------------
``REPRO_CAMPAIGN_FAULT=sigkill:<K>`` arms an env-gated fault that sends
``SIGKILL`` to the driver process immediately after the K-th checkpoint
commit of the process's lifetime.  The resume battery
(``tests/test_campaign_resume.py``) uses it to prove the semantics
above: kill after K of N cells, rerun, and the store must show exactly
K + (N − K) cells with a report byte-identical to an uninterrupted run.
The hook mirrors the ``_MUTATION`` seams of
``tests/test_engine_mutations.py``: inert unless armed, and armed only
by the test battery / the CI campaign-smoke job.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass, field

from repro.campaign.spec import CampaignCell, CampaignSpec
from repro.campaign.store import ResultStore
from repro.util.errors import CampaignError

__all__ = ["CampaignStats", "run_campaign", "group_key", "group_config"]

#: Env var arming the crash-injection hook (``sigkill:<K>``).
FAULT_ENV = "REPRO_CAMPAIGN_FAULT"

_fault_commits = 0


def _after_checkpoint() -> None:
    """Env-gated crash injection: SIGKILL after the K-th commit."""
    spec = os.environ.get(FAULT_ENV)
    if not spec:
        return
    kind, _, count = spec.partition(":")
    if kind != "sigkill" or not count.isdigit():
        raise CampaignError(
            f"malformed {FAULT_ENV}={spec!r} (expected 'sigkill:<K>')"
        )
    global _fault_commits
    _fault_commits += 1
    if _fault_commits >= int(count):
        os.kill(os.getpid(), signal.SIGKILL)


@dataclass
class CampaignStats:
    """What one :func:`run_campaign` call planned and executed."""

    cells_total: int = 0
    cells_skipped: int = 0
    cells_executed: int = 0
    cells_deferred: int = 0
    groups: int = 0
    workers: int = 1
    group_cells: list = field(default_factory=list)


def group_key(cell: CampaignCell) -> tuple:
    """The instance identity a cell runs against (one shared build each)."""
    return (cell.mesh, cell.target_cells, cell.mesh_seed, cell.k)


def group_config(cells, spec: CampaignSpec, workers: int = 1):
    """An :class:`~repro.experiments.configs.ExperimentConfig` covering
    ``cells`` (all sharing one :func:`group_key`), with canonically
    sorted axes — the config whose ``run_grid`` output the campaign
    report reproduces byte-for-byte."""
    from repro.experiments.configs import ExperimentConfig

    cells = list(cells)
    keys = {group_key(c) for c in cells}
    if len(keys) != 1:
        raise CampaignError(f"group_config needs one instance group, got {keys}")
    mesh, target_cells, mesh_seed, k = keys.pop()
    return ExperimentConfig(
        mesh=mesh,
        target_cells=target_cells,
        mesh_seed=mesh_seed,
        k=k,
        algorithms=tuple(sorted({c.algorithm for c in cells})),
        block_sizes=tuple(sorted({c.block_size for c in cells})),
        m_values=tuple(sorted({c.m for c in cells})),
        seeds=tuple(sorted({c.seed for c in cells})),
        engine=spec.engine,
        workers=workers,
    )


def _group_pending(pending):
    """Split the pending ``(hash, cell)`` plan into instance groups,
    preserving canonical order inside and across groups."""
    groups: dict[tuple, list] = {}
    for digest, cell in pending:
        groups.setdefault(group_key(cell), []).append((digest, cell))
    return [groups[key] for key in sorted(groups)]


def run_campaign(
    spec: CampaignSpec,
    store_path,
    workers: int | None = None,
    stats: CampaignStats | None = None,
    limit: int | None = None,
    serve: str | None = None,
) -> CampaignStats:
    """Execute (or resume) a campaign; returns what was planned/run.

    Only cells without a committed result are executed; each result is
    committed the moment it arrives (see the module docstring for the
    crash contract).  ``workers`` follows the grid convention: ``None``
    → serial, ``0`` → one per CPU, ``N > 1`` → dispatch each instance
    group through :mod:`repro.parallel`.  ``limit`` caps this call at
    the first N pending cells in canonical order (``repro campaign run
    --limit N`` — hot-path iteration without paying the full universe);
    deferred cells stay pending and are picked up by the next run,
    exactly like a resume.  Instance construction goes through the
    memoised runner chokepoint, so the content-addressed build cache
    (:mod:`repro.cache`, enabled via ``REPRO_CACHE_DIR``) is consulted
    before any mesh/DAG build.  ``serve`` routes execution to a running
    ``repro serve`` daemon at that address instead of building locally:
    each group's cells are pipelined over one connection (so the daemon
    batches them), checkpointed per result exactly like the other modes,
    and — because every cell's randomness is seed-derived — the store
    and report stay byte-identical.
    """
    from repro import obs
    from repro.experiments.runner import resolve_workers

    if stats is None:
        stats = CampaignStats()
    try:
        workers = resolve_workers(workers)
    except ValueError as exc:
        raise CampaignError(str(exc)) from None
    if limit is not None and limit < 0:
        raise CampaignError(f"limit must be >= 0, got {limit}")
    stats.workers = workers

    with obs.span(
        "campaign.run",
        cat="campaign",
        args_fn=lambda: {"campaign": spec.name, "workers": workers},
    ):
        with obs.span("campaign.plan", cat="campaign"):
            universe = spec.universe_hashes()
            store = ResultStore.open(store_path, spec)
            pending = store.pending_cells(spec)
            if limit is not None and len(pending) > limit:
                stats.cells_deferred = len(pending) - limit
                pending = pending[:limit]
            groups = _group_pending(pending)
        stats.cells_total = len(universe)
        stats.cells_skipped = len(universe) - len(pending) - stats.cells_deferred
        stats.groups = len(groups)
        stats.group_cells = [len(g) for g in groups]
        obs.inc("campaign.cells_skipped", stats.cells_skipped)

        client = None
        if serve is not None:
            from repro.serve.client import ServeClient

            client = ServeClient(serve)
        try:
            with store:
                for group in groups:
                    _run_group(group, spec, store, workers, stats,
                               client=client)
        finally:
            if client is not None:
                client.close()
    return stats


def _run_group(group, spec, store, workers, stats, client=None) -> None:
    from repro import obs
    from repro.experiments.runner import run_cell

    config = group_config([cell for _, cell in group], spec, workers=workers)

    def checkpoint(digest, cell, summary, elapsed_s, worker=None):
        with obs.span(
            "campaign.cell",
            cat="campaign",
            args_fn=lambda: {"hash": digest, "algorithm": cell.algorithm},
        ):
            store.record_result(digest, summary, elapsed_s, worker=worker)
        stats.cells_executed += 1
        obs.inc("campaign.cells_done")
        _after_checkpoint()

    if client is not None:
        requests = [
            {
                "instance": {
                    "mesh": cell.mesh,
                    "target_cells": cell.target_cells,
                    "mesh_seed": cell.mesh_seed,
                    "k": cell.k,
                },
                "algorithm": cell.algorithm,
                "m": cell.m,
                "block_size": cell.block_size,
                "seed": cell.seed,
                "engine": spec.engine,
                "with_comm": spec.with_comm,
            }
            for _, cell in group
        ]
        serve_tag = f"serve:{client.address}"
        summaries = client.schedule_many(requests)
        for (digest, cell), summary in zip(group, summaries):
            checkpoint(digest, cell, summary, 0.0, worker=serve_tag)
    elif workers > 1 and len(group) > 1:
        from repro.parallel.dispatcher import GridCell, run_dispatch

        grid_cells = [
            GridCell(i, cell.algorithm, cell.m, cell.block_size, cell.seed)
            for i, (_, cell) in enumerate(group)
        ]
        pool_tag = f"pool:{workers}"

        def sink(index, summary):
            digest, cell = group[index]
            checkpoint(digest, cell, summary, 0.0, worker=pool_tag)

        run_dispatch(config, spec.with_comm, workers, sink, cells=grid_cells)
    else:
        for digest, cell in group:
            with obs.timed("campaign.serial_cell", cat="campaign") as timer:
                summary = run_cell(
                    config,
                    cell.algorithm,
                    cell.m,
                    cell.block_size,
                    cell.seed,
                    with_comm=spec.with_comm,
                )
            checkpoint(digest, cell, summary, timer.elapsed)
