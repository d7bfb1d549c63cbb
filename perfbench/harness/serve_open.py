"""The ``serve_open`` workload: an open loop against ``repro serve``."""

from __future__ import annotations

import json
import os
from dataclasses import replace

import numpy as np

from repro.analysis.metrics import ScheduleSummary
from repro.experiments.configs import ExperimentConfig
from repro.experiments.runner import run_cell as serial_run_cell
from repro.serve.client import ServeClient

from harness.ledger import (keep_fastest, percentile, tree_cpu_s,
                            tree_peak_rss_mb, vmhwm_mb)
from harness.loadgen import Daemon, open_loop
from harness.workloads import MESH_SEED, OUT_DIR, Workload


class ServeOpen(Workload):
    """Fixed-rate requests to a ``repro serve --workers 1`` daemon.

    Set-up is daemon start plus publishing three instances.  Every reply
    is compared with a serial ``run_cell`` of the same cell, computed
    after the load so it stays out of ``setup_s`` and the timed phase.

    Every request is its own latency sample: in an open loop a slow
    moment delays the requests queued behind it, which is what
    ``p90_ms`` is there to show, so nothing is trimmed.  The offered rate
    pins ``cells_per_s`` (requests completed per second of load) unless
    requests fail or back up; what serving a request costs shows in
    ``serve.cells_per_cpu_s``, cells per CPU second of the daemon and
    its workers, sampled once per cycle of the request list.
    """

    name = "serve_open"
    #: One set-up takes ~1.5 s, so 5 s held only 3-4 repetitions and the
    #: fastest of them still spread 0.29 (IQR/median over ten seeds).
    setup_window_s = 12.0
    ALGORITHMS = ("random_delay", "random_delay_priority", "level", "dfds")
    MESHES = ("tetonly", "long", "well_logging")
    SEEDS_PER_SPEC = 2
    #: ``rate`` is about a quarter of the daemon's capacity measured on a
    #: 2-core x86 box (~105 requests/s with 1000-cell instances).  At half
    #: capacity, queueing turned a host slowdown of a third into a 64%
    #: higher p90 between two sets of runs of the same code.
    SIZES = {
        "full": dict(cells=1000, k=8, m=(16, 64), blocks=(1, 32), rate=25.0),
        "tiny": dict(cells=200, k=4, m=(4, 8), blocks=(1, 8), rate=40.0),
    }

    def __init__(self, root, seed, scale, faults) -> None:
        super().__init__(root, seed, scale, faults)
        size = self.SIZES[scale]
        self.instances = [
            dict(mesh=mesh, target_cells=size["cells"], mesh_seed=MESH_SEED,
                 k=size["k"])
            for mesh in self.MESHES
        ]
        # --seed sets the arrival order; the request set is fixed, so the
        # quality metrics do not depend on which seed the run drew.
        requests = [
            dict(instance=inst, algorithm=alg, m=m, block_size=b,
                 seed=r, engine="auto", with_comm=True)
            for inst in self.instances
            for alg in self.ALGORITHMS
            for m in size["m"]
            for b in size["blocks"]
            for r in range(self.SEEDS_PER_SPEC)
        ]
        order = np.random.default_rng(seed).permutation(len(requests))
        self.cycle = [requests[i] for i in order]
        self.references: dict = {}
        self.daemon = None
        self.started = 0
        self.loads: dict = {}
        #: trace flag -> ``[(cpu_s / cells, cpu_s, cells)]`` per request cycle
        self.cpu_windows: dict = {}
        self.rss = 0.0

    def _start(self, tr, trace_path=None) -> Daemon:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"serve-{os.getpid()}-{self.started}.sock")
        self.started += 1
        daemon = Daemon(self.root, path, workers=1, trace_path=trace_path)
        try:
            daemon.wait_ready()
            blocks = [b for b in self.SIZES[self.scale]["blocks"] if b > 1]
            with ServeClient(path) as client:
                for inst in self.instances:
                    with tr.span("serve.publish"):
                        client.publish(inst, block_sizes=blocks,
                                       algorithms=self.ALGORITHMS)
        except BaseException:
            daemon.kill()
            raise
        return daemon

    def setup(self, tr) -> None:
        self.daemon = self._start(tr)

    def discard_setup(self, ledger) -> None:
        code = self.daemon.drain()
        self.daemon = None
        if code != 0:
            ledger.fail("daemon drain", f"set-up daemon exited with code {code}")

    def _reference(self, i: int) -> ScheduleSummary:
        if i not in self.references:
            r = self.cycle[i]
            config = ExperimentConfig(**r["instance"], engine="auto")
            self.references[i] = serial_run_cell(
                config, r["algorithm"], r["m"], r["block_size"], r["seed"]
            )
        return self.references[i]

    def timed(self, tr, ledger, seconds: float) -> None:
        trace_path = None
        if tr.enabled:
            # The traced phase runs on a daemon that records its own spans.
            trace_path = os.path.join(OUT_DIR, f"serve-trace-{os.getpid()}.json")
            self.daemon = self._start(tr, trace_path)
        rate = self.SIZES[self.scale]["rate"]
        payloads = [
            dict(self.cycle[i % len(self.cycle)], v=1, id=i + 1, kind="schedule")
            for i in range(max(1, int(rate * seconds)))
        ]
        pid = self.daemon.pid
        try:
            res = open_loop(self.daemon.socket_path, payloads, rate,
                            probe=lambda: tree_cpu_s(pid),
                            probe_every=len(self.cycle))
            self.rss = max(self.rss, tree_peak_rss_mb(self.daemon.pid))
        finally:
            code = self.daemon.drain()
            self.daemon = None
        if code != 0:
            ledger.fail("daemon drain", f"exit code {code}")
        if res.status is None:
            ledger.fail("status", "no status reply after the load")
        for err in res.errors:
            ledger.fail("loadgen", err)
        for i, frame in enumerate(res.responses):
            what = f"request {i + 1}"
            if frame is None:
                ledger.fail(what, "no reply")
                continue
            if not frame.get("ok"):
                ledger.fail(what, f"refused: {frame.get('error')}")
                continue
            summary = ScheduleSummary(**frame["result"])
            if self.faults.take("serve_mismatch"):
                summary = replace(summary, makespan=summary.makespan + 1)
            if summary != self._reference(i % len(self.cycle)):
                ledger.fail(what, "served summary differs from serial run_cell")
                continue
            ledger.ok(i, res.recv[i] - res.due[i], [summary], 1,
                      record_digest=i < len(self.cycle), book_work=False)
        last = max((t for t in res.recv if t is not None), default=None)
        if last is not None:
            ledger.work.append((None, last - res.due[0],
                                sum(f is not None for f in res.responses)))
        self.cpu_windows[tr.enabled] = [
            ((cpu1 - cpu0) / (i1 - i0), cpu1 - cpu0, i1 - i0)
            for (i0, cpu0), (i1, cpu1) in zip(res.probes, res.probes[1:])
        ]
        self.loads[tr.enabled] = (res, trace_path)

    def timed_traced(self, tr, untraced, traced, seconds: float) -> None:
        # A traced load needs its own daemon, started with --trace, so the
        # untraced and traced halves run one after the other.
        tr.enabled = False
        self.timed(tr, untraced, seconds / 2)
        tr.enabled = True
        self.timed(tr, traced, seconds / 2)

    def peak_rss_mb(self) -> float:
        return max(vmhwm_mb(), self.rss)

    def unattributed(self, tr) -> float:
        # A request's layers run inside the daemon: compare the client's
        # latencies with the daemon's own serve.request spans.
        if True not in self.loads:
            return 0.0
        res, trace_path = self.loads[True]
        with open(trace_path) as fh:
            events = json.load(fh)["traceEvents"]
        lo = res.due[0] * 1e6
        hi = max(t for t in res.recv if t is not None) * 1e6
        served = sum(e["dur"] for e in events
                     if e.get("ph") == "X" and e["name"] == "serve.request"
                     and lo <= e["ts"] <= hi) / 1e6
        waited = sum(r - d for r, d in zip(res.recv, res.due) if r is not None)
        return 1.0 - served / waited if waited else 0.0

    def cells_per_cpu_s(self, traced: bool) -> float:
        """Cells per CPU second over the fastest half of request cycles."""
        kept = keep_fastest(((None, w) for w in self.cpu_windows[traced]), 0.5)
        return sum(c for _, _, c in kept) / sum(s for _, s, _ in kept)

    def layer_extras(self, tr) -> dict:
        res, _ = self.loads[False]
        per_cpu_s = self.cells_per_cpu_s(False)
        status = res.status or {}
        batcher = status.get("batcher", {})
        counters = status.get("registry", {}).get("counters", {})
        looked_up = counters.get("hits", 0) + counters.get("misses", 0)
        return {
            "serve.cells_per_cpu_s": per_cpu_s,
            # The offered rate pins cells_per_s; the daemon's CPU is
            # what tracing costs here.
            "trace.overhead_frac": 1.0 - self.cells_per_cpu_s(True) / per_cpu_s,
            "serve.cells_per_chunk": (batcher.get("cells_dispatched", 0)
                                      / max(batcher.get("chunks_dispatched", 0), 1)),
            "serve.refused": status.get("admission", {}).get("refused", 0),
            "serve.registry.hit_ratio": (counters.get("hits", 0) / looked_up
                                         if looked_up else 0.0),
            "loadgen.late_p90_ms": percentile(
                [s - d for s, d in zip(res.sent, res.due)], 90) * 1e3,
        }

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.kill()
            self.daemon = None
