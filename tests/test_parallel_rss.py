"""Worker memory + zero-rebuild contract of the parallel grid plane.

Spawn-context pool workers attach to the shared instance store instead
of inheriting a copy-on-write snapshot of the parent heap, so each
worker's peak RSS (``VmHWM``) must stay under
:data:`WORKER_RSS_CEILING_MB` — the fork-era figure was ~860 MiB against
a 150 MiB ceiling — and stay flat as the worker count grows.  And because
:func:`repro.parallel.worker.warm_instance` ships every cache the vector
engine touches through the shm wire format, a vector-engine grid must
perform *zero* cache rebuilds inside workers: the ``dag.cache.rebuild``
counter (incremented whenever an adopted Dag re-materialises a cache it
should have received) stays at zero across the whole run.  A heap-engine
control grid proves the counter is live — the heap's Python-list caches
are per-process by nature, so its workers *must* rebuild — which keeps
the vector assertion falsifiable rather than vacuous.

Marked ``grid_smoke`` alongside the other dispatcher end-to-end tests:

    python -m pytest -q -m grid_smoke
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.experiments.configs import ExperimentConfig
from repro.experiments.runner import clear_caches, run_grid
from repro.parallel import DispatchStats

#: Peak worker RSS (MiB) no parallel grid run may exceed.  Spawn-context
#: workers map the shared segment into a fresh interpreter, so their
#: high-water mark is attach + scheduling working set — the fork-era
#: copy-on-write snapshot of the parent heap put this near 860 MiB.
WORKER_RSS_CEILING_MB = 150.0

#: Largest max/min ratio of peak worker RSS across worker counts: each
#: worker holds the same attached instance, whatever the pool size.
WORKER_RSS_FLAT_RATIO = 1.25


def _grid_config(
    engine: str,
    algorithms: tuple = ("random_delay_priority",),
    m_values: tuple = (8,),
) -> ExperimentConfig:
    return ExperimentConfig(
        mesh="tetonly", target_cells=250, k=4,
        m_values=m_values, block_sizes=(1,),
        algorithms=algorithms,
        seeds=(0, 1, 2, 3),
        engine=engine,
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


@pytest.mark.grid_smoke
class TestWorkerRssAndZeroRebuild:
    def test_vector_grid_stays_under_rss_ceiling(self, traced_env):
        stats = DispatchStats()
        rows = run_grid(
            _grid_config("vector"), with_comm=True, workers=2, stats=stats
        )
        assert rows
        # VmHWM was actually sampled in the workers...
        assert stats.peak_worker_rss_mb > 0
        # ...and every worker stayed under the committed ceiling.
        assert stats.peak_worker_rss_mb < WORKER_RSS_CEILING_MB, (
            f"peak worker RSS {stats.peak_worker_rss_mb:.1f} MiB breaches "
            f"the {WORKER_RSS_CEILING_MB:.0f} MiB ceiling — workers "
            "are rebuilding or copying parent state again"
        )

    def test_peak_worker_rss_flat_across_worker_counts(self):
        """One grid at 2 and at 4 workers: a worker's peak RSS does not
        grow with the pool, since each attaches the one shared copy.
        Four rows make four chunks, so the 4-worker pool runs more than
        one of them."""
        config = _grid_config(
            "vector", ("random_delay_priority", "dfds"), m_values=(8, 16)
        )
        peaks = {}
        for workers in (2, 4):
            stats = DispatchStats()
            run_grid(config, with_comm=True, workers=workers, stats=stats)
            assert stats.n_chunks == 4
            peaks[workers] = stats.peak_worker_rss_mb
        assert min(peaks.values()) > 0, peaks
        ratio = max(peaks.values()) / min(peaks.values())
        assert ratio <= WORKER_RSS_FLAT_RATIO, (
            f"peak worker RSS by worker count {peaks} (max/min {ratio:.2f})"
        )

    def test_vector_grid_workers_rebuild_no_caches(self, traced_env):
        serial = run_grid(_grid_config("vector"), with_comm=True, workers=1)
        obs.reset()
        parallel = run_grid(_grid_config("vector"), with_comm=True, workers=2)
        metrics = obs.drain_metrics()
        rebuilds = metrics["counters"].get("dag.cache.rebuild", 0)
        assert rebuilds == 0, (
            f"vector-engine workers re-materialised {rebuilds} adopted "
            "caches — warm_instance no longer ships everything the engine "
            "touches"
        )
        # Adopting instead of rebuilding must not change the results.
        assert parallel == serial

    def test_union_priority_workers_rebuild_no_caches(self, traced_env):
        """DFDS and b-level priorities read only the union DAG's caches,
        which the warm-up ships: workers rebuild nothing for them."""
        config = _grid_config("vector", ("dfds", "blevel_delays"))
        serial = run_grid(config, with_comm=False, workers=1)
        clear_caches()  # publish a fresh instance, warmed only by the grid
        obs.reset()
        parallel = run_grid(config, with_comm=False, workers=2)
        metrics = obs.drain_metrics()
        assert metrics["counters"].get("dag.cache.rebuild", 0) == 0
        assert parallel == serial

    def test_rebuild_counter_is_live(self, traced_env):
        """Heap-engine control: its Python-list caches cannot ship over
        shm, so workers must rebuild them — proving the counter the
        vector test pins at zero actually fires.
        """
        obs.reset()
        rows = run_grid(_grid_config("heap"), with_comm=False, workers=2)
        assert rows
        metrics = obs.drain_metrics()
        assert metrics["counters"].get("dag.cache.rebuild", 0) > 0
