"""The one resident worker pool behind grid, campaign and serve.

Workers are spawned and initialised (``init_worker``) once, then attach
to each grid's segment lazily per chunk.  The pool is replaced only when
the worker count changes, a worker died, or the process forked, and
shuts down at interpreter exit.
"""

from __future__ import annotations

import atexit
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

from repro import obs
from repro.parallel.worker import init_worker

__all__ = ["WorkerPool", "shared_pool"]


class WorkerPool:
    """A lazily created spawn-context ``ProcessPoolExecutor`` kept resident."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._executor = None
        self._workers = 0
        self._pid = 0

    def executor(self, workers: int) -> ProcessPoolExecutor:
        """The live executor with ``workers`` processes, spawning if needed."""
        with self._lock:
            reason = self._replace_reason(workers)
            if reason is None:
                obs.inc("parallel.pool.reuse")
                return self._executor
            self.shutdown()
            obs.inc("parallel.pool.spawn")
            with obs.span(
                "worker.spawn",
                cat="parallel",
                args_fn=lambda: {"workers": workers, "reason": reason},
            ):
                # Spawn, not fork: worker RSS is the attach cost, not the
                # driver's heap.  Workers start on submit, so one task
                # each pre-spawns them; a failing initializer raises here.
                self._executor = ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=get_context("spawn"),
                    initializer=init_worker,
                )
                self._workers, self._pid = workers, os.getpid()
                for future in [
                    self._executor.submit(os.getpid) for _ in range(workers)
                ]:
                    future.result()
            return self._executor

    def _replace_reason(self, workers: int) -> str | None:
        if self._executor is None:
            return "first use"
        if self._pid != os.getpid():
            return "forked"
        # CPython marks the pool broken before failing its futures, so the
        # call that raised BrokenProcessPool leaves the flag set here.
        if self._executor._broken:
            return "broken pool replaced"
        if self._workers != workers:
            return "count changed"
        return None

    def shutdown(self) -> None:
        """Stop the workers (idempotent); the next use spawns afresh."""
        with self._lock:
            executor, self._executor = self._executor, None
            # A forked child owns none of the executor's threads or workers.
            if executor is not None and self._pid == os.getpid():
                executor.shutdown(wait=True, cancel_futures=True)


_SHARED = WorkerPool()
atexit.register(_SHARED.shutdown)


def shared_pool() -> WorkerPool:
    """The process-wide pool every parallel path of the package uses."""
    return _SHARED
