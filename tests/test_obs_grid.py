"""Multiprocess end-to-end tests for the ``repro.obs`` plane.

A ``workers=2`` grid run must come back with spans from at least two
distinct processes (driver + worker), merge them deterministically, and
export a Chrome trace that passes schema validation from disk.  Tracing
must also not perturb results: the traced parallel run stays
bit-identical to the serial runner.  Marked ``grid_smoke`` alongside the
other dispatcher end-to-end tests:

    python -m pytest -q -m grid_smoke
"""

from __future__ import annotations

import json
import os

import pytest

from repro import obs
from repro.cache import DIR_ENV
from repro.experiments.configs import ExperimentConfig
from repro.experiments.runner import clear_caches, run_grid
from repro.parallel import DispatchStats
from repro.parallel.pool import shared_pool

TRACE_CONFIG = ExperimentConfig(
    mesh="tetonly", target_cells=250, k=4,
    m_values=(8,), block_sizes=(1,),
    algorithms=("random_delay_priority",),
    seeds=(0, 1, 2, 3),
)


@pytest.fixture
def traced_env():
    was = obs.tracing_enabled()
    obs.reset()
    obs.enable_tracing()
    yield obs
    obs.reset()
    if not was:
        obs.disable_tracing()


def _traced_grid_run(workers: int):
    """Run the trace config and return (rows, merged spans, metrics)."""
    obs.reset()
    rows = run_grid(TRACE_CONFIG, with_comm=True, workers=workers)
    spans = obs.merge_spans([obs.drain_spans()])
    metrics = obs.drain_metrics()
    return rows, spans, metrics


@pytest.mark.grid_smoke
class TestMultiprocessTrace:
    def test_workers2_trace_spans_two_pids(self, traced_env):
        rows, spans, metrics = _traced_grid_run(workers=2)
        assert rows  # the run itself produced results
        pids = {s.pid for s in spans}
        assert len(pids) >= 2, f"expected driver + worker pids, got {pids}"
        driver = os.getpid()
        assert driver in pids
        names_by_pid = {}
        for s in spans:
            names_by_pid.setdefault(s.pid, set()).add(s.name)
        # Dispatch phases recorded in the driver; chunk execution in
        # the workers, shipped back over the result channel.
        assert "grid.dispatch" in names_by_pid[driver]
        worker_names = set().union(
            *(names_by_pid[p] for p in pids if p != driver)
        )
        assert {"worker.chunk", "worker.cell"} <= worker_names
        # Every grid cell got exactly one worker.cell span.
        n_cells = sum(1 for s in spans if s.name == "worker.cell")
        assert n_cells == len(TRACE_CONFIG.seeds)
        # Worker metrics merged into the parent registry.
        assert metrics["counters"]  # scheduler counters from workers
        assert "grid.publish" in names_by_pid[driver]

    def test_dispatch_phases_are_their_spans(self, traced_env):
        obs.reset()
        stats = DispatchStats()
        run_grid(TRACE_CONFIG, with_comm=True, workers=2, stats=stats)
        driver = os.getpid()
        # Drain order is close order: the grid.wait spans arrive in the
        # order the dispatcher accumulated them.
        spans = [s for s in obs.drain_spans() if s.pid == driver]

        def dur(name):
            (s,) = [s for s in spans if s.name == name]
            return s.dur

        assert stats.warm_s == dur("grid.warm")
        assert stats.plan_s == dur("grid.plan")
        assert stats.publish_s == dur("grid.publish")
        assert stats.dispatch_s == dur("grid.execute")
        waits = [s.dur for s in spans if s.name == "grid.wait"]
        assert waits
        total = 0.0
        for d in waits:
            total += d
        assert stats.wait_s == total

    def test_merged_order_is_deterministic(self, traced_env):
        _, spans, _ = _traced_grid_run(workers=2)
        # Re-merging any interleaving of the same spans reproduces the
        # same timeline: the order is a pure function of the span set.
        odd, even = spans[::2], spans[1::2]
        assert obs.merge_spans([list(odd), list(even)]) == spans
        assert obs.merge_spans([list(even), list(odd)]) == spans
        keys = [obs.span_sort_key(s) for s in spans]
        assert keys == sorted(keys)

    def test_span_structure_stable_across_runs(self, traced_env, monkeypatch):
        # Start truly cold (no memoised instance, no disk cache, no
        # resident pool) so the result does not depend on test order.
        monkeypatch.delenv(DIR_ENV, raising=False)
        clear_caches()
        shared_pool().shutdown()
        _, cold, _ = _traced_grid_run(workers=2)
        _, first, _ = _traced_grid_run(workers=2)
        _, second, _ = _traced_grid_run(workers=2)
        # Pids and timings differ run to run; the traced structure (how
        # many spans of each (name, cat, depth)) must not.
        def shape(spans):
            counts = {}
            for s in spans:
                key = (s.name, s.cat, s.depth)
                counts[key] = counts.get(key, 0) + 1
            # One grid.wait per wait() call: how many chunks finish per
            # call is arrival timing, not structure.
            for key in counts:
                if key[0] == "grid.wait":
                    counts[key] = 1
            return counts

        warm = shape(first)
        assert warm == shape(second)
        # The cold run differs only by the one-off mesh generation,
        # instance build and pool spawn, each traced exactly once.
        extra = {
            key: n for key, n in shape(cold).items() if key not in warm
        }
        assert extra == {
            ("instance.mesh", "build", 1): 1,
            ("mesh.generate", "mesh", 2): 1,
            ("instance.build", "build", 1): 1,
            ("build.edges", "build", 2): 1,
            ("build.csr", "build", 2): 1,
            ("build.levels", "build", 2): 1,
            ("build.cycle_check", "build", 2): 1,
            ("worker.spawn", "parallel", 2): 1,  # inside grid.execute
        }
        assert {k: n for k, n in shape(cold).items() if k in warm} == warm

    def test_exported_chrome_trace_validates_from_disk(
        self, traced_env, tmp_path
    ):
        _, spans, metrics = _traced_grid_run(workers=2)
        path = tmp_path / "grid_trace.json"
        obs.write_chrome_trace(str(path), spans, metrics=metrics)
        loaded = json.loads(path.read_text())
        assert obs.validate_chrome_trace(loaded) == []
        event_pids = {e["pid"] for e in loaded["traceEvents"]}
        assert len(event_pids) >= 2
        # The driver (min pid need not be the parent!) and workers are
        # labelled via process_name metadata for the Perfetto UI.
        labels = [e["args"]["name"] for e in loaded["traceEvents"]
                  if e["ph"] == "M"]
        assert any("driver" in lbl for lbl in labels)
        assert any("worker" in lbl for lbl in labels)
        assert loaded["otherData"]["metrics"]["counters"]

    def test_traced_parallel_run_stays_bit_identical(self, traced_env):
        serial = run_grid(TRACE_CONFIG, with_comm=True, workers=1)
        obs.reset()
        parallel = run_grid(TRACE_CONFIG, with_comm=True, workers=2)
        assert serial == parallel

    def test_serial_run_traces_without_workers(self, traced_env):
        rows, spans, _ = _traced_grid_run(workers=1)
        assert rows
        names = {s.name for s in spans}
        assert "grid.serial" in names
        assert {s.pid for s in spans} == {os.getpid()}

    def test_untraced_grid_run_ships_no_payloads(self):
        was = obs.tracing_enabled()
        obs.disable_tracing()
        obs.reset()
        try:
            rows = run_grid(TRACE_CONFIG, with_comm=True, workers=2)
            assert rows
            assert obs.drain_spans() == []
            assert obs.drain_metrics() == {"counters": {}, "gauges": {}}
        finally:
            if was:
                obs.enable_tracing()
