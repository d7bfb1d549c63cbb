"""Request coalescing and dispatch onto the resident worker pool.

The daemon's latency/throughput trade is made here: schedule requests
arriving within a small window (``max_delay_s``) that are *compatible*
— same published segment, engine, block size, and comm setting — are
coalesced into one grid chunk and dispatched as a single IPC round trip
to the process's **resident** spawn-context pool
(:mod:`repro.parallel.pool`, pre-spawned at daemon start, so a warm
request never pays interpreter/import/attach startup).  Workers
run the exact chunk entry point of the grid dispatcher
(:func:`repro.parallel.worker.run_chunk`), so results are bit-identical
to ``run_grid`` by construction: every cell's randomness is a function
of its seed alone.

Batches respect per-request deadlines twice: an already-expired request
is dropped from the chunk at dispatch (its slot answered with
``deadline_exceeded``), and a result arriving after the deadline is
discarded the same way — a client never receives a stale result.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from repro import obs
from repro.parallel.pool import shared_pool
from repro.serve import protocol
from repro.serve.instances import Lease
from repro.util.errors import ServeError
from repro.util.timing import now

__all__ = ["BatchRequest", "Batcher"]

#: Default coalescing window: long enough that one pipelined burst of
#: client frames lands in one chunk, short enough to be invisible next
#: to scheduling work.
DEFAULT_MAX_DELAY_S = 0.005

#: Hard cap on cells per coalesced chunk (memory/latency guard).
DEFAULT_MAX_BATCH = 64


@dataclass
class BatchRequest:
    """One in-flight schedule request inside the batcher."""

    algorithm: str
    m: int
    block_size: int
    seed: object
    with_comm: bool
    engine: str
    lease: Lease
    future: asyncio.Future
    #: Absolute monotonic deadline (``repro.util.timing.now`` timeline),
    #: or ``None`` for no deadline.
    deadline: float | None = None

    def expired(self, at: float) -> bool:
        return self.deadline is not None and at >= self.deadline

    def batch_key(self) -> tuple:
        """Coalescing compatibility: segment × engine × block × comm."""
        return (
            self.lease.manifest.segment,
            self.engine,
            self.block_size,
            self.with_comm,
        )


@dataclass
class _PendingBatch:
    requests: list = field(default_factory=list)
    timer: object = None


class Batcher:
    """Coalesce compatible requests; dispatch chunks to a resident pool."""

    def __init__(
        self,
        workers: int = 2,
        max_delay_s: float = DEFAULT_MAX_DELAY_S,
        max_batch: int = DEFAULT_MAX_BATCH,
    ) -> None:
        self.workers = max(int(workers), 1)
        self.max_delay_s = max_delay_s
        self.max_batch = max(int(max_batch), 1)
        self._batches: dict[tuple, _PendingBatch] = {}
        self._dispatches: set = set()
        self.chunks_dispatched = 0
        self.cells_dispatched = 0

    # -- pool lifecycle ------------------------------------------------

    def start(self) -> None:
        """Pre-spawn the resident pool, so no request pays worker startup."""
        shared_pool().executor(self.workers)

    async def shutdown(self) -> None:
        """Flush pending batches and await in-flight chunks.

        The pool is process-wide and shuts down at interpreter exit.
        """
        for key in list(self._batches):
            self._flush(key)
        while self._dispatches:
            await asyncio.gather(*list(self._dispatches),
                                 return_exceptions=True)

    # -- request path --------------------------------------------------

    async def submit(self, request: BatchRequest):
        """Enqueue one request; resolves to its ``ScheduleSummary``.

        The request joins (or opens) the pending batch of its
        compatibility key; the batch flushes when the coalescing window
        elapses or the batch cap is reached, whichever first.
        """
        key = request.batch_key()
        batch = self._batches.get(key)
        if batch is None:
            batch = self._batches[key] = _PendingBatch()
            loop = asyncio.get_running_loop()
            batch.timer = loop.call_later(
                self.max_delay_s, self._flush, key
            )
        batch.requests.append(request)
        if len(batch.requests) >= self.max_batch:
            self._flush(key)
        return await request.future

    def _flush(self, key: tuple) -> None:
        batch = self._batches.pop(key, None)
        if batch is None:
            return
        if batch.timer is not None:
            batch.timer.cancel()
        with obs.span(
            "serve.batch",
            cat="serve",
            args_fn=lambda: {
                "requests": len(batch.requests), "segment": key[0],
            },
        ):
            at = now()
            live: list[BatchRequest] = []
            for request in batch.requests:
                if request.expired(at):
                    _refuse_expired(request, "before dispatch")
                else:
                    live.append(request)
        if not live:
            return
        task = asyncio.get_running_loop().create_task(
            self._dispatch(live)
        )
        self._dispatches.add(task)
        task.add_done_callback(self._dispatches.discard)

    async def _dispatch(self, requests: list) -> None:
        """Run one coalesced chunk on the pool; settle every request."""
        from repro.parallel.dispatcher import GridCell
        from repro.parallel.worker import run_chunk

        first = requests[0]
        cells = tuple(
            GridCell(i, r.algorithm, r.m, r.block_size, r.seed)
            for i, r in enumerate(requests)
        )
        self.chunks_dispatched += 1
        self.cells_dispatched += len(cells)
        try:
            with obs.span(
                "serve.dispatch",
                cat="serve",
                args_fn=lambda: {"cells": len(cells)},
            ):
                pairs, worker_rss, payload = await asyncio.wrap_future(
                    shared_pool().executor(self.workers).submit(
                        run_chunk,
                        first.lease.manifest,
                        cells,
                        first.with_comm,
                        first.engine,
                        obs.tracing_enabled(),
                    )
                )
            obs.ingest_payload(payload)
            obs.gauge_max("serve.peak_worker_rss_mb", worker_rss)
        except BaseException as exc:
            obs.recover_payload_from_exception(exc)
            for request in requests:
                if not request.future.done():
                    request.future.set_exception(ServeError(
                        protocol.E_INTERNAL,
                        f"worker chunk failed: {type(exc).__name__}: {exc}",
                    ))
                request.lease.release()
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            return
        at = now()
        for index, summary in pairs:
            request = requests[index]
            if request.expired(at):
                # The result exists but arrived late; the contract is an
                # error, never a stale answer.
                _refuse_expired(request, "after dispatch")
            elif not request.future.done():
                request.future.set_result(summary)
            request.lease.release()


def _refuse_expired(request: BatchRequest, when: str) -> None:
    obs.inc("serve.deadline_exceeded")
    if not request.future.done():
        request.future.set_exception(ServeError(
            protocol.E_DEADLINE_EXCEEDED,
            f"deadline expired {when} (deadline_s elapsed while the "
            "request was queued or running)",
        ))
    if when == "before dispatch":
        request.lease.release()
