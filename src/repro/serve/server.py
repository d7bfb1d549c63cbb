"""The resident scheduling daemon: asyncio server wiring all the planes.

One :class:`ServeServer` owns the four serve components — protocol
framing, the pinned-LRU :class:`~repro.serve.instances.InstanceRegistry`,
the :class:`~repro.serve.admission.AdmissionController` gate, and the
coalescing :class:`~repro.serve.batcher.Batcher` over a resident
spawn-context worker pool — plus the process-level concerns: the unix
(or TCP) listener, the SIGTERM/SIGINT graceful drain, and the optional
trace export.

Request lifecycle (spans in parentheses)::

    frame in ──(serve.accept)── validate + admit + stamp deadline
             ──(registry executor thread)── get_or_publish + pin
             ──(serve.batch)── coalesce within the delay window
             ──(serve.dispatch)── one chunk on the resident pool
             ──(serve.reply)── frame out, admission release

Blocking work (instance builds, cache loads) never runs on the event
loop: registry operations run on a dedicated single-thread executor
(RPL007 polices the coroutine bodies here).  The worker pool starts
before the listener opens, and again only to replace a broken pool.

Drain contract: on ``SIGTERM`` the daemon stops accepting, finishes
every in-flight request, closes + unlinks every shared segment,
removes its socket file, and exits 0 (the pool stops with the
process) — afterwards
``repro doctor`` (and the ``list_orphan_segments`` probe behind it)
must report zero orphans.
"""

from __future__ import annotations

import asyncio
import os
import signal
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro import obs
from repro.serve import protocol
from repro.serve.admission import DEFAULT_MAX_PENDING, AdmissionController
from repro.serve.batcher import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_DELAY_S,
    Batcher,
    BatchRequest,
)
from repro.serve.instances import (
    DEFAULT_MAX_RESIDENT_BYTES,
    InstanceRegistry,
    InstanceSpec,
)
from repro.util.errors import ReproError, ServeError

__all__ = ["ServeConfig", "ServeServer", "run_server"]

#: Printed (and flushed) once the daemon is accepting; tests and the CI
#: smoke job block on this line before sending the first request.
READY_LINE = "repro-serve: ready"


@dataclass
class ServeConfig:
    """Everything the daemon needs to come up."""

    #: Unix socket path (the default transport), or ``None`` with TCP.
    socket_path: str | None = None
    #: TCP ``(host, port)``; used only when ``socket_path`` is ``None``.
    tcp: tuple | None = None
    workers: int = 2
    max_pending: int = DEFAULT_MAX_PENDING
    max_delay_s: float = DEFAULT_MAX_DELAY_S
    max_batch: int = DEFAULT_MAX_BATCH
    max_resident_bytes: int = DEFAULT_MAX_RESIDENT_BYTES
    #: Write a merged Chrome trace here on drain (enables tracing).
    trace_path: str | None = None


class ServeServer:
    """One daemon instance; see the module docstring for the contract."""

    def __init__(self, config: ServeConfig) -> None:
        if config.socket_path is None and config.tcp is None:
            raise ServeError(
                protocol.E_BAD_REQUEST,
                "ServeConfig needs a socket_path or a tcp (host, port)",
            )
        self.config = config
        self.registry = InstanceRegistry(max_bytes=config.max_resident_bytes)
        self.admission = AdmissionController(
            self.registry, max_pending=config.max_pending
        )
        self.batcher = Batcher(
            workers=config.workers,
            max_delay_s=config.max_delay_s,
            max_batch=config.max_batch,
        )
        # Registry publishes (cache loads, mesh/DAG builds) are blocking
        # and mutually exclusive; one dedicated thread keeps them off the
        # event loop *and* serialised.
        self._registry_exec = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-registry"
        )
        self._server: asyncio.AbstractServer | None = None
        self._writers: set = set()
        self._tasks: set = set()
        self._drained = asyncio.Event()
        self._draining = False

    # -- lifecycle -----------------------------------------------------

    async def run(self) -> None:
        """Bring the daemon up, serve until drained, clean up."""
        if self.config.trace_path:
            obs.enable_tracing()
        self.batcher.start()
        if self.config.socket_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_conn, path=self.config.socket_path
            )
        else:
            host, port = self.config.tcp
            self._server = await asyncio.start_server(
                self._handle_conn, host=host, port=port
            )
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_drain)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        print(READY_LINE, flush=True)
        await self._drained.wait()

    def request_drain(self) -> None:
        """Signal-safe drain trigger (idempotent)."""
        if not self._draining:
            self._draining = True
            task = asyncio.get_running_loop().create_task(self._drain())
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    async def _drain(self) -> None:
        """Finish in-flight, refuse new, unlink everything, exit run()."""
        self.admission.begin_drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.admission.wait_idle()
        await self.batcher.shutdown()
        self._registry_exec.shutdown(wait=True)
        self.registry.close_all()
        for writer in list(self._writers):
            writer.close()
        if self.config.socket_path is not None:
            try:
                os.unlink(self.config.socket_path)
            except FileNotFoundError:
                pass
        if self.config.trace_path:
            _export_trace(self.config.trace_path)
        self._drained.set()

    # -- connection / request handling ---------------------------------

    async def _handle_conn(self, reader, writer) -> None:
        self._writers.add(writer)
        write_lock = asyncio.Lock()
        try:
            while True:
                try:
                    prefix = await reader.readexactly(4)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                try:
                    length = protocol.frame_length(prefix)
                    body = await reader.readexactly(length)
                    payload = protocol.decode_frame(body)
                except ServeError as exc:
                    await self._reply(
                        writer, write_lock,
                        protocol.error_response(None, exc.code, str(exc)),
                    )
                    break
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                # Handle each request concurrently so one long schedule
                # does not head-of-line block the pipelined frames
                # behind it (that concurrency is what the batcher
                # coalesces).
                task = asyncio.get_running_loop().create_task(
                    self._handle_request(payload, writer, write_lock)
                )
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)
        finally:
            self._writers.discard(writer)
            writer.close()

    async def _handle_request(self, payload, writer, write_lock) -> None:
        request_id = payload.get("id")
        with obs.span("serve.request", cat="serve"):
            try:
                response = await self._respond(payload)
            except ServeError as exc:
                response = protocol.error_response(
                    request_id, exc.code, str(exc),
                    retry_after=exc.retry_after,
                )
            except ReproError as exc:
                response = protocol.error_response(
                    request_id, protocol.E_BAD_REQUEST, str(exc)
                )
            except Exception as exc:  # never kill the daemon on one request
                response = protocol.error_response(
                    request_id, protocol.E_INTERNAL,
                    f"{type(exc).__name__}: {exc}",
                )
            await self._reply(writer, write_lock, response)

    async def _reply(self, writer, write_lock, response: dict) -> None:
        with obs.span("serve.reply", cat="serve"):
            data = protocol.encode_frame(response)
            async with write_lock:
                if writer.is_closing():
                    return
                writer.write(data)
                try:
                    await writer.drain()
                except ConnectionError:
                    pass

    async def _respond(self, payload: dict) -> dict:
        with obs.span("serve.accept", cat="serve"):
            protocol.validate_request(payload)
            kind = payload["kind"]
        request_id = payload["id"]
        if kind == "status":
            return protocol.ok_response(request_id, self._status())
        if kind == "metrics":
            return protocol.ok_response(request_id, self._metrics())
        if kind == "publish":
            return protocol.ok_response(
                request_id, await self._publish(payload)
            )
        return protocol.ok_response(
            request_id, await self._schedule(payload)
        )

    # -- request kinds -------------------------------------------------

    def _status(self) -> dict:
        return {
            "pid": os.getpid(),
            "protocol": protocol.PROTOCOL_VERSION,
            "workers": self.batcher.workers,
            "admission": self.admission.snapshot(),
            "registry": self.registry.snapshot(),
            "batcher": {
                "chunks_dispatched": self.batcher.chunks_dispatched,
                "cells_dispatched": self.batcher.cells_dispatched,
                "max_delay_s": self.batcher.max_delay_s,
                "max_batch": self.batcher.max_batch,
            },
        }

    def _metrics(self) -> dict:
        return {
            "instances": dict(self.registry.counters),
            "admission": self.admission.snapshot(),
            "obs": obs.metrics_snapshot(),
        }

    async def _publish(self, payload: dict) -> dict:
        self.admission.admit("publish")
        try:
            spec = InstanceSpec.from_payload(payload["instance"])
            entry = await self._get_or_publish(
                spec,
                tuple(payload.get("block_sizes", [])),
                tuple(payload.get("algorithms", [])),
            )
            return {
                "instance": entry.key,
                "bytes": entry.nbytes,
                "block_sizes": list(entry.block_sizes),
                "resident_bytes": self.registry.resident_bytes,
            }
        finally:
            self.admission.release()

    async def _schedule(self, payload: dict) -> dict:
        self.admission.admit("schedule")
        lease = None
        try:
            deadline = self.admission.stamp_deadline(
                payload.get("deadline_s")
            )
            spec = InstanceSpec.from_payload(payload["instance"])
            engine = payload.get("engine", "auto")
            entry = await self._get_or_publish(
                spec,
                (payload["block_size"],),
                (payload["algorithm"],),
            )
            # The publish may have been the slow part; a request whose
            # deadline died waiting for it must not dispatch.
            self.admission.check_deadline(deadline)
            lease = self.registry.pin(entry)
            request = BatchRequest(
                algorithm=payload["algorithm"],
                m=payload["m"],
                block_size=payload["block_size"],
                seed=payload["seed"],
                with_comm=payload.get("with_comm", True),
                engine=engine,
                lease=lease,
                future=asyncio.get_running_loop().create_future(),
                deadline=deadline,
            )
            lease = None  # the batcher owns (and releases) it now
            summary = await self.batcher.submit(request)
            return summary.as_dict()
        finally:
            if lease is not None:
                lease.release()
            self.admission.release()

    async def _get_or_publish(self, spec, block_sizes, algorithms):
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._registry_exec,
            lambda: self.registry.get_or_publish(
                spec, block_sizes=block_sizes, algorithms=algorithms,
            ),
        )


def _export_trace(path: str) -> None:
    """Drain the daemon's merged span/metric buffers into a Chrome trace.

    Also prints the ``repro.obs`` summary table (count/total/p50/p95/max
    per span name) to stderr, so a drained daemon's log carries its own
    request-latency percentiles — CI's serve-smoke job asserts on them.
    """
    spans = obs.merge_spans([obs.drain_spans()])
    metrics = obs.drain_metrics()
    obs.write_chrome_trace(path, spans, metrics=metrics)
    print(
        f"repro-serve: wrote trace {path} ({len(spans)} spans from "
        f"{len({s.pid for s in spans})} pids)",
        file=sys.stderr, flush=True,
    )
    print(obs.summary_text(spans, metrics), file=sys.stderr, flush=True)


def run_server(config: ServeConfig) -> int:
    """Blocking daemon entry point (the ``repro serve`` command body)."""
    server = ServeServer(config)
    asyncio.run(server.run())
    return 0
