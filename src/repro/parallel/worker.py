"""Worker-process side of the parallel grid plane.

Top-level (picklable) functions the dispatcher runs inside pool workers,
plus :func:`warm_instance` — the parent-side cache warm-up that decides
which :class:`~repro.core.dag.Dag` memo caches get materialised before
the instance is published to shared memory.  Workers attach zero-copy and
inherit exactly those caches, so the expensive per-instance
precomputations (union CSR, level structure, b-levels, descendant
counts) happen once per grid instead of once per
worker.
"""

from __future__ import annotations

import atexit
import os
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # annotation-only imports; runtime imports stay lazy
    from repro.analysis.metrics import ScheduleSummary
    from repro.core.instance import SweepInstance
    from repro.parallel.dispatcher import GridCell
    from repro.parallel.shm_store import StoreManifest

__all__ = ["warm_instance", "init_worker", "run_chunk"]


def warm_instance(inst: "SweepInstance", algorithms: Iterable[str] = ()) -> None:
    """Materialise the memo caches the given workload will need.

    Always warmed (every list-scheduling engine touches them): the union
    DAG, its successor CSR, indegree/outdegree, and level structure
    (``task_levels``, the priority basis of the random-delay family,
    which also leaves every direction DAG its level slice), plus the
    per-direction degrees — everything the frontier kernel reads.
    Warmed on demand: per-direction descendant counts
    (``descendant*``) and the union DAG's b-levels (``dfds*`` /
    ``blevel*``, which read only union caches).

    Everything warmed here ships to attached workers through the
    shared-memory cache wire format, so a worker running the frontier
    kernel performs zero cache rebuilds (``dag.cache.rebuild`` stays 0 —
    pinned by ``tests/test_parallel_rss.py`` for the vector engine, whose
    caches are all numpy arrays; the heap engine's Python-list
    conversions are per-process by nature).
    """
    inst.task_levels()
    union = inst.union_dag()
    union.outdegree()
    for g in inst.dags:
        g.indegree()
        g.outdegree()
    names = set(algorithms)
    if any(n.startswith("descendant") for n in names):
        for g in inst.dags:
            g.descendant_counts()
    if any(n.startswith(("dfds", "blevel")) for n in names):
        union.b_levels()


def _die_with_parent() -> None:
    """Arm ``PR_SET_PDEATHSIG`` so a dead driver takes its pool down.

    A driver that dies without cleanup (``SIGKILL``, OOM kill, a hard
    crash — exactly what the campaign plane's resume contract covers)
    would otherwise orphan every pool worker on its call-queue read
    forever.  Linux-only and best-effort: anywhere ``prctl`` is missing
    the workers keep today's behaviour.  If the parent died in the
    window before the flag was armed, exit immediately — the new parent
    (init) will never die for us.
    """
    import signal

    try:
        import ctypes

        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        libc.prctl(1, signal.SIGKILL)  # 1 = PR_SET_PDEATHSIG
    except Exception:
        return
    if os.getppid() == 1:
        os.kill(os.getpid(), signal.SIGKILL)


def init_worker() -> None:
    """Pool initializer, once per resident worker: ties it to the driver,
    clears inherited obs buffers, drops its segment mapping at exit, and
    closes the inherited resource-tracker pipe end (a driver stopping its
    tracker waits for every write end to close)."""
    from multiprocessing import resource_tracker

    from repro import obs
    from repro.parallel.shm_store import detach_all

    _die_with_parent()
    tracker = resource_tracker._resource_tracker  # CPython internal
    if tracker._fd is not None:
        os.close(tracker._fd)
        tracker._fd = None
    obs.reset()
    atexit.register(detach_all)


def run_chunk(
    manifest: "StoreManifest",
    cells: Sequence["GridCell"],
    with_comm: bool,
    engine: str,
    trace: bool,
) -> tuple[list[tuple[int, "ScheduleSummary"]], float, dict | None]:
    """Execute one chunk of grid cells against the shared instance.

    ``trace`` is the driver's tracing switch at submit time; a resident
    worker outlives any one grid, so it travels with each chunk.

    Returns ``(pairs, peak_rss_mb, obs_payload)`` where ``pairs`` is a
    list of ``(cell index, ScheduleSummary)`` — keyed results, so the
    dispatcher aggregates by cell index and a transport reordering
    cannot silently mis-assign rows — ``peak_rss_mb`` is this worker's
    peak RSS (the bench harness's flat-memory evidence), and
    ``obs_payload`` carries this worker's buffered spans/metrics back
    over the result channel (``None`` when tracing is disabled).

    On failure the drained payload is attached to the raised exception
    (:func:`repro.obs.attach_payload_to_exception`), so even a
    :class:`~repro.util.errors.SanitizerError` mid-chunk loses no trace
    data — the dispatcher recovers it in the parent.
    """
    from repro import obs
    from repro.experiments.runner import run_cell_on
    from repro.parallel.dispatcher import process_peak_rss_mb
    from repro.parallel.shm_store import attach, verify_attached
    from repro.util.timing import Timer

    if trace:
        obs.enable_tracing()
    else:
        obs.disable_tracing()
    try:
        with obs.span(
            "worker.chunk",
            cat="parallel",
            args_fn=lambda: {"cells": len(cells)},
        ):
            with obs.span("worker.attach", cat="parallel"), Timer() as t_at:
                inst, blocks = attach(manifest)
            obs.gauge_max("parallel.attach_s", t_at.elapsed)
            pairs = []
            for cell in cells:
                with obs.span(
                    "worker.cell",
                    cat="parallel",
                    args_fn=lambda cell=cell: {
                        "index": cell.index,
                        "algorithm": cell.algorithm,
                        "m": cell.m,
                    },
                ):
                    summary = run_cell_on(
                        inst,
                        cell.algorithm,
                        cell.m,
                        cell.block_size,
                        cell.seed,
                        with_comm=with_comm,
                        engine=engine,
                        blocks=blocks.get(cell.block_size)
                        if cell.block_size > 1
                        else None,
                    )
                pairs.append((cell.index, summary))
            # Under REPRO_SANITIZE=1 pin any stray segment write to the
            # chunk that made it (no-op otherwise).
            with obs.span("sanitize.verify_chunk", cat="sanitize"):
                verify_attached(manifest)
    except BaseException as exc:
        obs.attach_payload_to_exception(exc)
        raise
    return pairs, process_peak_rss_mb(), obs.export_payload()
