"""The ``repro serve`` daemon handle and the open-loop request generator.

The generator is one process holding at most two connections.  A sender
thread writes pre-built ``schedule`` frames (``repro.serve.protocol``
framing) at fixed due times and never waits for replies; one receiver
thread per connection reads responses as they come.  Latency runs from
each request's due time, so a stall in the daemon delays every request
queued behind it instead of slowing the sender down; how late the sender
itself ran is recorded next to it.
"""

from __future__ import annotations

import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from repro.serve import protocol
from repro.serve.server import READY_LINE


class Daemon:
    """One ``python -m repro serve`` subprocess on a unix socket.

    The socket path is relative to the working directory (the checkout
    root), which keeps it short and inside the checkout.
    """

    def __init__(self, root: str, socket_path: str, workers: int = 1,
                 trace_path: str | None = None) -> None:
        self.socket_path = socket_path
        cmd = [sys.executable, "-m", "repro", "serve", "--socket", socket_path,
               "--workers", str(workers)]
        if trace_path is not None:
            cmd += ["--trace", trace_path]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
        )
        self.proc = subprocess.Popen(cmd, cwd=root, env=env,
                                     stdout=subprocess.PIPE, text=True)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError("daemon did not become ready")
            ready, _, _ = select.select([self.proc.stdout], [], [], left)
            if not ready:
                continue
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"daemon exited before ready (code {self.proc.wait()})"
                )
            if line.strip() == READY_LINE:
                return

    def drain(self, timeout: float = 60.0) -> int:
        """SIGTERM, then wait; returns the exit code (``-9`` if killed)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                self.proc.stdout.close()
                return -9
        self.proc.stdout.close()
        return self.proc.returncode

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if not self.proc.stdout.closed:
            self.proc.stdout.close()


@dataclass
class LoadResult:
    due: list
    sent: list
    recv: list
    responses: list
    errors: list = field(default_factory=list)
    status: dict | None = None
    #: ``(index, probe())`` taken before sending every ``probe_every``-th
    #: payload, then once after the last reply.
    probes: list = field(default_factory=list)


def _connect(path: str, timeout: float) -> socket.socket:
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    sock.connect(path)
    return sock


def open_loop(path: str, payloads: list, rate: float, connections: int = 2,
              timeout: float = 60.0, probe=None, probe_every: int = 0) -> LoadResult:
    """Send ``payloads`` at ``rate`` per second; collect every reply.

    Payload ``i`` must carry ``"id": i + 1``.  After the last reply (or
    ``timeout``) a ``status`` request is sent on the first connection.
    """
    n = len(payloads)
    socks = [_connect(path, timeout) for _ in range(max(1, min(connections, n)))]
    res = LoadResult([0.0] * n, [0.0] * n, [None] * n, [None] * n)
    try:
        def receive(c: int) -> None:
            want = len(range(c, n, len(socks)))
            try:
                for _ in range(want):
                    frame = protocol.read_frame(socks[c])
                    t = time.perf_counter()
                    if frame is None:
                        res.errors.append(f"connection {c} closed early")
                        return
                    i = frame.get("id")
                    if not isinstance(i, int) or not 1 <= i <= n:
                        res.errors.append(f"reply with unknown id {i!r}: {frame}")
                        continue
                    res.recv[i - 1] = t
                    res.responses[i - 1] = frame
            except Exception as exc:  # recorded: every reply left counts as failed
                res.errors.append(f"connection {c}: {type(exc).__name__}: {exc}")

        threads = [threading.Thread(target=receive, args=(c,), daemon=True)
                   for c in range(len(socks))]
        for t in threads:
            t.start()
        t0 = time.perf_counter() + 0.02
        for i, payload in enumerate(payloads):
            due = t0 + i / rate
            res.due[i] = due
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            if probe is not None and i % probe_every == 0:
                res.probes.append((i, probe()))
            protocol.write_frame(socks[i % len(socks)], payload)
            res.sent[i] = time.perf_counter()
        for t in threads:
            t.join(timeout)
            if t.is_alive():
                res.errors.append("receiver did not finish before the timeout")
        if probe is not None:
            res.probes.append((n, probe()))
        if not any(t.is_alive() for t in threads):
            protocol.write_frame(socks[0], {"v": protocol.PROTOCOL_VERSION,
                                            "id": n + 1, "kind": "status"})
            reply = protocol.read_frame(socks[0])
            if reply is not None and reply.get("ok"):
                res.status = reply["result"]
    finally:
        for s in socks:
            s.close()
    return res
