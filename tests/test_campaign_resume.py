"""Crash-injection battery: campaign resume semantics under SIGKILL.

Resume semantics are only real if a kill-matrix proves them, so this
file drives real driver processes (``python -m repro campaign run``)
armed with the env-gated fault hook
(``REPRO_CAMPAIGN_FAULT=sigkill:<K>``, see
:mod:`repro.campaign.executor`) that SIGKILLs the driver immediately
after its K-th checkpoint commit.  For every K in the matrix the
battery asserts the full contract:

* the driver actually died by ``SIGKILL`` (no cleanup code ran),
* the store holds *exactly* K committed cells — sqlite's atomic
  commits mean a kill can never leave a torn row,
* the rerun executes *exactly* N − K cells (nothing redone, nothing
  lost), and
* the final report is byte-identical to an uninterrupted run's.

A ``workers=2`` variant (under ``grid_smoke`` with the rest of the
parallel battery) kills the driver while a process pool is live, then
proves resume + byte-identity still hold; the shared-memory segment the
killed driver leaks is reaped by the test, restoring the suite's
no-orphan invariant.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign import (
    ResultStore,
    load_spec,
    report_json,
    run_campaign,
)

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def build_cache_enabled(tmp_path, monkeypatch):
    """Run the whole battery with the content-addressed build cache on.

    Instance construction in both the in-process baselines and the
    SIGKILL'd driver subprocesses (which inherit ``os.environ``) goes
    through :mod:`repro.cache`; the byte-identity assertions below then
    double as proof that cached construction changes nothing.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "build_cache"))

#: 12-cell campaign (2 algorithms x 2 m x 3 seeds), small enough that
#: each subprocess run stays in CI-smoke territory.
SPEC_TOML = """\
name = "resume-battery"
engine = "auto"
with_comm = true

[[grid]]
mesh = ["square2d"]
target_cells = 120
mesh_seed = 0
k = [2]
algorithms = ["fifo", "random_delay_priority"]
block_sizes = [1]
m = [4, 8]
seeds = [0, 1, 2]
"""

N_CELLS = 12


def _write_spec(tmp_path: Path) -> Path:
    spec_path = tmp_path / "campaign.toml"
    spec_path.write_text(SPEC_TOML)
    return spec_path


def _run_driver(spec_path, store_path, fault=None, workers=1, limit=None):
    """Run ``repro campaign run`` in a real subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("REPRO_CAMPAIGN_FAULT", None)
    if fault is not None:
        env["REPRO_CAMPAIGN_FAULT"] = fault
    return subprocess.run(
        [
            sys.executable, "-m", "repro", "campaign", "run",
            str(spec_path), "--store", str(store_path),
            "--workers", str(workers),
        ]
        + (["--limit", str(limit)] if limit is not None else []),
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _reap_leaked_segments():
    """Unlink /dev/shm segments a SIGKILL'd driver could not clean up.

    The store unregisters its segment from the resource tracker on
    purpose (workers would double-free it otherwise), so a killed
    driver leaks exactly its own segment; reaping here keeps the
    suite's no-orphan invariant for every other test.
    """
    from repro.parallel import list_orphan_segments

    for name in list_orphan_segments():
        try:
            os.unlink(os.path.join("/dev/shm", name))
        except OSError:
            pass


def _baseline_report(tmp_path: Path) -> str:
    """Report bytes of an uninterrupted run (independent fresh store)."""
    spec = load_spec(_write_spec(tmp_path))
    clean_store = tmp_path / "uninterrupted.sqlite"
    run_campaign(spec, clean_store)
    with ResultStore.open(clean_store, spec) as store:
        return report_json(spec, store)


class TestKillMatrix:
    """Kill after K of N cells, for K across the whole campaign."""

    @pytest.mark.parametrize("kill_after", [1, 5, 11])
    def test_sigkill_then_resume_runs_exactly_the_rest(
        self, tmp_path, kill_after
    ):
        spec_path = _write_spec(tmp_path)
        store_path = tmp_path / "battery.sqlite"
        spec = load_spec(spec_path)

        proc = _run_driver(spec_path, store_path,
                           fault=f"sigkill:{kill_after}")
        assert proc.returncode == -signal.SIGKILL, proc.stderr

        # Atomic checkpoints: exactly K committed cells, never a torn row.
        with ResultStore.open(store_path, spec) as store:
            counts = store.counts(spec.universe_hashes())
        assert counts["done"] == kill_after
        assert counts["pending"] == N_CELLS - kill_after

        # The rerun picks up exactly the unfinished cells.
        stats = run_campaign(spec, store_path)
        assert stats.cells_executed == N_CELLS - kill_after
        assert stats.cells_skipped == kill_after
        assert stats.cells_total == N_CELLS

        # And the report is byte-identical to an uninterrupted run.
        with ResultStore.open(store_path, spec) as store:
            resumed = report_json(spec, store)
        assert resumed == _baseline_report(tmp_path)

    def test_interrupted_report_fails_loudly(self, tmp_path):
        from repro.util.errors import CampaignError

        spec_path = _write_spec(tmp_path)
        store_path = tmp_path / "partial.sqlite"
        spec = load_spec(spec_path)
        proc = _run_driver(spec_path, store_path, fault="sigkill:3")
        assert proc.returncode == -signal.SIGKILL
        with ResultStore.open(store_path, spec) as store:
            with pytest.raises(CampaignError, match="incomplete"):
                report_json(spec, store)

    def test_second_resume_is_a_no_op(self, tmp_path):
        spec_path = _write_spec(tmp_path)
        store_path = tmp_path / "noop.sqlite"
        spec = load_spec(spec_path)
        run_campaign(spec, store_path)
        stats = run_campaign(spec, store_path)
        assert stats.cells_executed == 0
        assert stats.cells_skipped == N_CELLS


class TestLimit:
    """``--limit N`` is a voluntary checkpoint: defer, then resume."""

    def test_limit_defers_and_resume_completes(self, tmp_path):
        spec_path = _write_spec(tmp_path)
        store_path = tmp_path / "limited.sqlite"
        spec = load_spec(spec_path)

        stats = run_campaign(spec, store_path, limit=5)
        assert stats.cells_executed == 5
        assert stats.cells_deferred == N_CELLS - 5
        assert stats.cells_skipped == 0
        with ResultStore.open(store_path, spec) as store:
            counts = store.counts(spec.universe_hashes())
        assert counts["done"] == 5
        assert counts["pending"] == N_CELLS - 5

        # The next (unlimited) run behaves exactly like a resume.
        stats = run_campaign(spec, store_path)
        assert stats.cells_executed == N_CELLS - 5
        assert stats.cells_skipped == 5
        assert stats.cells_deferred == 0
        with ResultStore.open(store_path, spec) as store:
            resumed = report_json(spec, store)
        assert resumed == _baseline_report(tmp_path)

    def test_limit_larger_than_pending_defers_nothing(self, tmp_path):
        spec = load_spec(_write_spec(tmp_path))
        stats = run_campaign(spec, tmp_path / "big.sqlite", limit=999)
        assert stats.cells_executed == N_CELLS
        assert stats.cells_deferred == 0

    def test_negative_limit_rejected(self, tmp_path):
        from repro.util.errors import CampaignError

        spec = load_spec(_write_spec(tmp_path))
        with pytest.raises(CampaignError, match="limit"):
            run_campaign(spec, tmp_path / "neg.sqlite", limit=-1)

    def test_negative_workers_rejected(self, tmp_path):
        from repro.util.errors import CampaignError

        spec = load_spec(_write_spec(tmp_path))
        with pytest.raises(CampaignError, match="workers must be >= 0"):
            run_campaign(spec, tmp_path / "neg.sqlite", workers=-1)

    @pytest.mark.grid_smoke
    def test_instance_groups_share_one_pool_spawn(self, tmp_path):
        from repro import obs
        from repro.parallel.pool import shared_pool

        spec_path = tmp_path / "two_groups.toml"
        spec_path.write_text(SPEC_TOML.replace("k = [2]", "k = [2, 4]"))
        spec = load_spec(spec_path)
        shared_pool().shutdown()
        was = obs.tracing_enabled()
        obs.enable_tracing()
        obs.reset()
        try:
            stats = run_campaign(spec, tmp_path / "two.sqlite", workers=2)
            counters = obs.drain_metrics()["counters"]
        finally:
            obs.reset()
            if not was:
                obs.disable_tracing()
        assert stats.groups == 2
        assert counters["parallel.pool.spawn"] == 1
        assert counters["parallel.pool.reuse"] == 1

    def test_cli_limit_flag_reports_deferral(self, tmp_path):
        spec_path = _write_spec(tmp_path)
        store_path = tmp_path / "cli.sqlite"
        proc = _run_driver(spec_path, store_path, limit=3)
        assert proc.returncode == 0, proc.stderr
        assert f"{N_CELLS - 3} deferred by --limit" in proc.stdout
        spec = load_spec(spec_path)
        with ResultStore.open(store_path, spec) as store:
            counts = store.counts(spec.universe_hashes())
        assert counts["done"] == 3


@pytest.mark.grid_smoke
class TestKillMatrixWorkers:
    """The same contract with a live worker pool at kill time."""

    def test_sigkill_mid_dispatch_then_parallel_resume(self, tmp_path):
        spec_path = _write_spec(tmp_path)
        store_path = tmp_path / "pool.sqlite"
        spec = load_spec(spec_path)
        try:
            proc = _run_driver(spec_path, store_path,
                               fault="sigkill:4", workers=2)
            assert proc.returncode == -signal.SIGKILL, proc.stderr
        finally:
            _reap_leaked_segments()

        with ResultStore.open(store_path, spec) as store:
            counts = store.counts(spec.universe_hashes())
        assert counts["done"] == 4
        assert counts["pending"] == N_CELLS - 4

        stats = run_campaign(spec, store_path, workers=2)
        assert stats.cells_executed == N_CELLS - 4
        assert stats.cells_skipped == 4
        with ResultStore.open(store_path, spec) as store:
            resumed = report_json(spec, store)
        assert resumed == _baseline_report(tmp_path)

    def test_serial_and_parallel_campaigns_byte_identical(self, tmp_path):
        spec_path = _write_spec(tmp_path)
        spec = load_spec(spec_path)
        serial_store = tmp_path / "serial.sqlite"
        parallel_store = tmp_path / "parallel.sqlite"
        run_campaign(spec, serial_store)
        run_campaign(spec, parallel_store, workers=2)
        with ResultStore.open(serial_store, spec) as store:
            serial = report_json(spec, store)
        with ResultStore.open(parallel_store, spec) as store:
            parallel = report_json(spec, store)
        assert serial == parallel


class TestReportMatchesRunGrid:
    """The store-derived report equals a fresh ``run_grid`` byte-for-byte."""

    def test_report_rows_equal_fresh_run_grid(self, tmp_path):
        import json

        from repro.campaign import campaign_rows, group_config
        from repro.experiments.runner import run_grid

        spec = load_spec(_write_spec(tmp_path))
        store_path = tmp_path / "grid.sqlite"
        run_campaign(spec, store_path)
        with ResultStore.open(store_path, spec) as store:
            rows = campaign_rows(spec, store)
        config = group_config(spec.compile(), spec)
        fresh = run_grid(config, with_comm=spec.with_comm)
        assert rows == fresh
        assert json.dumps(rows, indent=1, sort_keys=True) == json.dumps(
            fresh, indent=1, sort_keys=True
        )


class TestFaultHook:
    def test_malformed_fault_env_fails_loudly(self, tmp_path, monkeypatch):
        from repro.campaign.executor import FAULT_ENV
        from repro.util.errors import CampaignError

        monkeypatch.setenv(FAULT_ENV, "explode:oops")
        spec = load_spec(_write_spec(tmp_path))
        with pytest.raises(CampaignError, match="malformed"):
            run_campaign(spec, tmp_path / "hook.sqlite")
