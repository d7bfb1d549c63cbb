"""Tests for the locality-aware parallel grid dispatcher.

End-to-end coverage of ``run_grid(workers=N)``: bit-identical
equivalence with the serial runner (including communication metrics and
blocked assignment), shared-memory leak checks for both the normal-exit
and worker-crash paths, chunk-planning invariants, and the keyed
aggregation's fail-loudly contract.  The equivalence and leak tests are
marked ``grid_smoke`` so CI runs them as a dedicated job:

    python -m pytest -q -m grid_smoke
"""

import concurrent.futures
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

import repro.parallel.dispatcher as dispatcher_mod
from repro import obs
from repro.experiments.configs import ExperimentConfig
from repro.experiments.runner import resolve_workers, run_grid
from repro.parallel import (
    DispatchStats,
    grid_cells,
    list_orphan_segments,
    plan_batches,
    plan_chunks,
    run_dispatch,
)
from repro.util.errors import ReproError

#: Two small presets for the equivalence lockdown: one exercising the
#: communication metrics + blocked assignment on a 3-D mesh, one
#: exercising a cache-heavy priority family (dfds) on a second mesh.
PRESET_COMM = ExperimentConfig(
    mesh="tetonly", target_cells=250, k=4,
    m_values=(4, 16), block_sizes=(1, 8),
    algorithms=("random_delay_priority",),
    seeds=(0, 1),
)
PRESET_PRIORITY = ExperimentConfig(
    mesh="long", target_cells=250, k=4,
    m_values=(8,), block_sizes=(1,),
    algorithms=("dfds", "descendant_delays"),
    seeds=(0, 1, 2),
)


def _traced_counters(fn, expect):
    """Run ``fn`` traced; check it returns ``expect``; return its counters."""
    was = obs.tracing_enabled()
    obs.enable_tracing()
    obs.reset()
    try:
        assert fn() == expect
        return obs.drain_metrics()["counters"]
    finally:
        obs.reset()
        if not was:
            obs.disable_tracing()


def _pool_pids() -> set:
    """Pids of this process's live multiprocessing children (pool workers)."""
    return {p.pid for p in multiprocessing.active_children()}


@pytest.fixture
def traced_env():
    was = obs.tracing_enabled()
    obs.reset()
    obs.enable_tracing()
    yield obs
    obs.reset()
    if not was:
        obs.disable_tracing()


def _spawn_reasons(spans) -> list:
    return [s.args["reason"] for s in spans if s.name == "worker.spawn"]


@pytest.mark.grid_smoke
class TestEquivalence:
    def test_with_comm_preset_bit_identical(self):
        serial = run_grid(PRESET_COMM, with_comm=True, workers=1)
        parallel = run_grid(PRESET_COMM, with_comm=True, workers=2)
        assert serial == parallel

    def test_priority_preset_bit_identical(self):
        serial = run_grid(PRESET_PRIORITY, with_comm=False, workers=1)
        parallel = run_grid(PRESET_PRIORITY, with_comm=False, workers=2)
        assert serial == parallel

    def test_config_workers_field_is_honoured(self):
        from dataclasses import replace

        parallel_cfg = replace(PRESET_PRIORITY, workers=2)
        assert run_grid(parallel_cfg, with_comm=False) == run_grid(
            PRESET_PRIORITY, with_comm=False
        )


@pytest.mark.grid_smoke
class TestLeaks:
    def test_no_segments_after_normal_run(self):
        run_grid(PRESET_COMM, with_comm=False, workers=2)
        assert list_orphan_segments() == []

    def test_no_segments_after_worker_crash(self):
        # The parent never resolves algorithm names (only warm_instance
        # peeks at prefixes), so the unknown name detonates inside a
        # worker mid-grid — the dispatcher must still unlink the store.
        crash = ExperimentConfig(
            mesh="square2d", target_cells=120, k=2,
            m_values=(4,), algorithms=("no_such_algorithm",),
            seeds=(0, 1),
        )
        with pytest.raises(ReproError, match="unknown algorithm"):
            run_grid(crash, workers=2)
        assert list_orphan_segments() == []
        # A task exception is not a dead worker: the resident pool stays
        # usable and the next grid runs on it without a respawn.
        serial = run_grid(PRESET_PRIORITY, with_comm=False, workers=1)
        counters = _traced_counters(
            lambda: run_grid(PRESET_PRIORITY, with_comm=False, workers=2),
            expect=serial,
        )
        assert "parallel.pool.spawn" not in counters
        assert counters["parallel.pool.reuse"] == 1


@pytest.mark.grid_smoke
class TestResidentPool:
    """One resident pool per process: spawned once, replaced only when the
    worker count changes or a worker died."""

    def test_second_grid_reuses_workers(self, traced_env):
        serial = run_grid(PRESET_PRIORITY, with_comm=False, workers=1)
        assert run_grid(PRESET_PRIORITY, with_comm=False, workers=2) == serial
        first = _pool_pids()
        assert len(first) == 2  # the workers outlive the call
        obs.reset()
        assert run_grid(PRESET_PRIORITY, with_comm=False, workers=2) == serial
        spans = obs.drain_spans()
        counters = obs.drain_metrics()["counters"]
        assert "parallel.pool.spawn" not in counters
        assert counters["parallel.pool.reuse"] == 1
        assert _spawn_reasons(spans) == []
        assert _pool_pids() == first
        driver = os.getpid()
        assert {s.pid for s in spans if s.pid != driver} <= first

    def test_sigkilled_worker_fails_loudly_then_respawns(
        self, traced_env, monkeypatch
    ):
        serial = run_grid(PRESET_COMM, with_comm=True, workers=1)
        run_grid(PRESET_COMM, with_comm=True, workers=2)
        victims = _pool_pids()
        assert len(victims) == 2
        real_wait = concurrent.futures.wait

        def killing_wait(fs, *args, **kwargs):
            # The dispatcher's first wait() follows the last submit; the
            # workers are stopped, so every chunk is still unfinished
            # when they die.
            while victims:
                os.kill(victims.pop(), signal.SIGKILL)
            return real_wait(fs, *args, **kwargs)

        for pid in victims:
            os.kill(pid, signal.SIGSTOP)
        try:
            with monkeypatch.context() as patch:
                patch.setattr(concurrent.futures, "wait", killing_wait)
                with pytest.raises(BrokenProcessPool):
                    run_dispatch(PRESET_COMM, True, 2, lambda i, s: None)
        finally:
            while victims:  # never leave a stopped worker behind
                os.kill(victims.pop(), signal.SIGKILL)
        assert list_orphan_segments() == []
        obs.reset()
        assert run_grid(PRESET_COMM, with_comm=True, workers=2) == serial
        counters = obs.drain_metrics()["counters"]
        assert counters["parallel.pool.spawn"] == 1
        assert _spawn_reasons(obs.drain_spans()) == ["broken pool replaced"]

    def test_worker_count_change_replaces_pool(self, traced_env):
        serial = run_grid(PRESET_PRIORITY, with_comm=False, workers=1)
        run_grid(PRESET_PRIORITY, with_comm=False, workers=2)
        before = _pool_pids()
        obs.reset()
        assert run_grid(PRESET_PRIORITY, with_comm=False, workers=3) == serial
        after = _pool_pids()
        assert len(after) == 3 and not after & before
        assert obs.drain_metrics()["counters"]["parallel.pool.spawn"] == 1
        assert _spawn_reasons(obs.drain_spans()) == ["count changed"]

    def test_tracker_stop_with_live_pool_exits(self):
        # A driver that stops the resource tracker explicitly while the
        # resident pool is alive must not hang: the workers dropped their
        # inherited end of the tracker's pipe.
        script = textwrap.dedent("""
            from multiprocessing import resource_tracker
            from repro.experiments.configs import ExperimentConfig
            from repro.experiments.runner import run_grid

            config = ExperimentConfig(
                mesh="square2d", target_cells=120, k=2, m_values=(4,),
                algorithms=("fifo",), seeds=(0, 1),
            )
            run_grid(config, workers=2)
            resource_tracker._resource_tracker._stop()
        """)
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, timeout=60,
            capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr


class TestResolveWorkers:
    def test_explicit_wins_over_config(self):
        cfg = ExperimentConfig(workers=4)
        assert resolve_workers(2, cfg) == 2

    def test_none_defers_to_config(self):
        assert resolve_workers(None, ExperimentConfig(workers=3)) == 3

    def test_zero_means_cpu_count(self):
        import os

        assert resolve_workers(0, ExperimentConfig()) == (os.cpu_count() or 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="workers must be >= 0"):
            resolve_workers(-1, ExperimentConfig())

    def test_none_without_config_is_serial(self):
        assert resolve_workers(None) == 1

    @pytest.mark.grid_smoke
    @pytest.mark.parametrize("cpus", [1, 64])
    def test_oversubscription_is_reported_not_clamped(
        self, traced_env, monkeypatch, cpus
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert resolve_workers(2, ExperimentConfig()) == 2
        stats = DispatchStats()
        run_grid(PRESET_PRIORITY, with_comm=False, workers=2, stats=stats)
        assert stats.workers == 2
        (dispatch,) = [s for s in obs.drain_spans() if s.name == "grid.dispatch"]
        assert dispatch.args["workers"] == 2
        assert dispatch.args["cpu_count"] == cpus
        assert dispatch.args["oversubscribed"] is (cpus < 2)
        counters = obs.drain_metrics()["counters"]
        assert counters.get("parallel.oversubscribed", 0) == (cpus < 2)


class TestChunkPlanning:
    CONFIG = ExperimentConfig(
        m_values=(2, 4, 8), block_sizes=(1, 8, 32),
        algorithms=("random_delay", "level"),
        seeds=(0, 1, 2),
    )

    def test_grid_cells_is_row_major_and_indexed(self):
        cells = grid_cells(self.CONFIG)
        assert [c.index for c in cells] == list(range(len(cells)))
        n_seeds = len(self.CONFIG.seeds)
        for row_start in range(0, len(cells), n_seeds):
            row = cells[row_start : row_start + n_seeds]
            assert len({(c.algorithm, c.m, c.block_size) for c in row}) == 1
            assert [c.seed for c in row] == list(self.CONFIG.seeds)

    def test_batches_cover_rows_exactly(self):
        batches = plan_batches(self.CONFIG)
        cells = grid_cells(self.CONFIG)
        n_seeds = len(self.CONFIG.seeds)
        assert len(batches) == len(cells) // n_seeds
        covered = [c.index for b in batches for c in b.cells]
        assert sorted(covered) == list(range(len(cells)))

    @pytest.mark.parametrize("workers", [1, 2, 4, 16])
    def test_chunks_never_mix_block_sizes_or_split_batches(self, workers):
        batches = plan_batches(self.CONFIG)
        chunks = plan_chunks(batches, workers, cell_cost=1000)
        seen_rows = []
        for chunk in chunks:
            assert len({b.block_size for b in chunk}) == 1
            seen_rows.extend(b.row for b in chunk)
        assert sorted(seen_rows) == [b.row for b in batches]

    def test_chunk_count_tracks_worker_count(self):
        batches = plan_batches(self.CONFIG)
        few = plan_chunks(batches, 1, cell_cost=1000)
        many = plan_chunks(batches, 8, cell_cost=1000)
        assert len(few) <= len(many)
        # Never more chunks than batches, never fewer than block sizes.
        assert len(many) <= len(batches)
        assert len(few) >= len(set(b.block_size for b in batches))

    def test_planning_is_deterministic(self):
        batches = plan_batches(self.CONFIG)
        a = plan_chunks(batches, 4, cell_cost=7)
        b = plan_chunks(batches, 4, cell_cost=7)
        assert a == b

    def test_empty_grid_plans_empty(self):
        assert plan_chunks([], 4, cell_cost=1) == []


class TestDispatchStats:
    def test_stats_populated_on_parallel_run(self):
        stats = DispatchStats()
        run_grid(PRESET_PRIORITY, with_comm=False, workers=2, stats=stats)
        assert stats.workers == 2
        assert stats.n_chunks >= 1
        assert sum(stats.chunk_cells) == stats.n_cells == len(
            grid_cells(PRESET_PRIORITY)
        )
        assert stats.peak_worker_rss_mb > 0


class TestKeyedAggregationFailsLoudly:
    """The sink contract: unknown, duplicate, or missing cell indices are
    structural dispatcher bugs and must raise, never mis-assign rows."""

    CONFIG = ExperimentConfig(
        mesh="square2d", target_cells=120, k=2, m_values=(4,),
        algorithms=("fifo",), seeds=(0, 1), workers=2,
    )

    def _run_with_fake_dispatch(self, monkeypatch, fake):
        monkeypatch.setattr(dispatcher_mod, "run_dispatch", fake)
        return run_grid(self.CONFIG, with_comm=False)

    def test_unknown_index_raises(self, monkeypatch):
        def fake(config, with_comm, workers, sink, stats=None):
            sink(999, object())

        with pytest.raises(RuntimeError, match="unknown cell index"):
            self._run_with_fake_dispatch(monkeypatch, fake)

    def test_duplicate_index_raises(self, monkeypatch):
        def fake(config, with_comm, workers, sink, stats=None):
            sink(0, object())
            sink(0, object())

        with pytest.raises(RuntimeError, match="twice"):
            self._run_with_fake_dispatch(monkeypatch, fake)

    def test_dropped_rows_raise(self, monkeypatch):
        def fake(config, with_comm, workers, sink, stats=None):
            pass  # deliver nothing

        with pytest.raises(RuntimeError, match="lost"):
            self._run_with_fake_dispatch(monkeypatch, fake)
