"""Battery for the content-addressed build cache (``repro.cache``).

Locks the module's design contract: content keys are deterministic and
sensitive to every construction input; round-trips are bit-identical;
verification is fail-loud (corruption raises ``CacheError``, never a
silent miss); eviction is size-bounded LRU that never evicts the newest
entry; and writes are atomic — a ``SIGKILL`` landing in the widest
unsafe window (payload written, rename pending) leaves no visible
corrupt entry, only a stray ``*.tmp`` that the leak probe reports.
"""

from __future__ import annotations

import json
import os
import signal
import struct
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro import cache as build_cache
from repro.experiments.configs import ExperimentConfig
from repro.experiments import runner
from repro.mesh.generators import make_mesh, mesh_dim
from repro.sweeps import build_instance, directions_for_mesh
from repro.sweeps.dag_builder import DEFAULT_TOL
from repro.util.errors import CacheError

_REPO = Path(__file__).resolve().parent.parent


@pytest.fixture
def cache_root(tmp_path, monkeypatch):
    root = tmp_path / "cache"
    monkeypatch.setenv(build_cache.DIR_ENV, str(root))
    monkeypatch.delenv(build_cache.MAX_MB_ENV, raising=False)
    monkeypatch.delenv(build_cache.FAULT_ENV, raising=False)
    build_cache.reset_counters()
    yield root
    build_cache.reset_counters()


def _tet_instance(cells=120, k=4):
    mesh = make_mesh("tetonly", target_cells=cells, seed=0)
    dirs = directions_for_mesh(3, k)
    inst = build_instance(mesh, dirs)
    key = build_cache.instance_key("tetonly", cells, 0, k, DEFAULT_TOL, dirs)
    return key, inst


def _assert_same_instance(a, b) -> None:
    assert a.n_cells == b.n_cells and a.k == b.k and a.name == b.name
    for ga, gb in zip(a.dags, b.dags):
        assert np.array_equal(ga.edges, gb.edges)
    assert np.array_equal(a.task_levels(), b.task_levels())


class TestKey:
    def test_deterministic(self):
        dirs = directions_for_mesh(3, 8)
        a = build_cache.instance_key("tetonly", 200, 0, 8, DEFAULT_TOL, dirs)
        b = build_cache.instance_key("tetonly", 200, 0, 8, DEFAULT_TOL, dirs)
        assert a == b

    def test_sensitive_to_every_input(self):
        dirs = directions_for_mesh(3, 8)
        base = build_cache.instance_key("tetonly", 200, 0, 8, DEFAULT_TOL, dirs)
        bumped = dirs.copy()
        bumped[0, 0] = np.nextafter(bumped[0, 0], np.inf)
        variants = [
            build_cache.instance_key("graded", 200, 0, 8, DEFAULT_TOL, dirs),
            build_cache.instance_key("tetonly", 201, 0, 8, DEFAULT_TOL, dirs),
            build_cache.instance_key("tetonly", 200, 1, 8, DEFAULT_TOL, dirs),
            build_cache.instance_key("tetonly", 200, 0, 9, DEFAULT_TOL, dirs),
            build_cache.instance_key("tetonly", 200, 0, 8, 1e-9, dirs),
            build_cache.instance_key("tetonly", 200, 0, 8, DEFAULT_TOL, bumped),
        ]
        assert len({base, *variants}) == len(variants) + 1

    def test_disabled_without_env(self, monkeypatch):
        monkeypatch.delenv(build_cache.DIR_ENV, raising=False)
        key, inst = _tet_instance()
        assert build_cache.cache_dir() is None
        assert build_cache.entry_path(key) is None
        assert build_cache.store_instance(key, inst) is None
        assert build_cache.load_instance(key) is None
        assert build_cache.list_entries() == []
        assert build_cache.clear_cache() == 0


class TestRoundTrip:
    def test_store_load_bit_identical(self, cache_root):
        key, inst = _tet_instance()
        path = build_cache.store_instance(key, inst)
        assert path is not None and path.exists()
        loaded = build_cache.load_instance(key)
        assert loaded is not None
        _assert_same_instance(inst, loaded)
        assert build_cache.COUNTERS["store"] == 1
        assert build_cache.COUNTERS["hit"] == 1

    def test_materialised_caches_round_trip(self, cache_root):
        key, inst = _tet_instance()
        inst.task_levels()  # materialise before export
        build_cache.store_instance(key, inst)
        loaded = build_cache.load_instance(key)
        # from_arrays adopts the memo: levels come back without rebuild.
        assert loaded._union_dag is not None
        assert loaded._union_dag._level_of is not None
        assert np.array_equal(loaded.task_levels(), inst.task_levels())

    def test_miss_counts_and_returns_none(self, cache_root):
        assert build_cache.load_instance("0" * 32) is None
        assert build_cache.COUNTERS["miss"] == 1
        assert build_cache.COUNTERS["hit"] == 0


def _rewrite_header(path: Path, mutate) -> None:
    """Parse an entry file, apply ``mutate`` to its header dict, repack."""
    blob = path.read_bytes()
    head_at = len(b"REPROCACHE\n")
    (header_len,) = struct.unpack_from("<Q", blob, head_at)
    payload = blob[head_at + 8 + header_len :]
    header = json.loads(blob[head_at + 8 : head_at + 8 + header_len])
    mutate(header)
    packed = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(
        blob[:head_at] + struct.pack("<Q", len(packed)) + packed + payload
    )


class TestVerification:
    def test_flipped_payload_byte_raises(self, cache_root):
        key, inst = _tet_instance()
        path = build_cache.store_instance(key, inst)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CacheError, match="digest mismatch"):
            build_cache.load_arrays(key)

    def test_bad_magic_raises(self, cache_root):
        key, inst = _tet_instance()
        path = build_cache.store_instance(key, inst)
        path.write_bytes(b"NOTACACHE!!" + path.read_bytes()[11:])
        with pytest.raises(CacheError, match="bad magic"):
            build_cache.load_arrays(key)

    def test_version_mismatch_raises(self, cache_root):
        key, inst = _tet_instance()
        path = build_cache.store_instance(key, inst)
        _rewrite_header(path, lambda h: h.__setitem__("cache_version", 99))
        with pytest.raises(CacheError, match="cache_version"):
            build_cache.load_arrays(key)

    def test_truncated_entry_raises(self, cache_root):
        key, inst = _tet_instance()
        path = build_cache.store_instance(key, inst)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 32])
        with pytest.raises(CacheError):
            build_cache.load_arrays(key)

    def test_key_mismatch_raises(self, cache_root):
        key, inst = _tet_instance()
        path = build_cache.store_instance(key, inst)
        stolen = "f" * len(key)
        path.rename(path.with_name(f"{stolen}{build_cache.ENTRY_SUFFIX}"))
        with pytest.raises(CacheError, match="stored key"):
            build_cache.load_arrays(stolen)


class TestEviction:
    def test_lru_keeps_hottest(self, cache_root, monkeypatch):
        key, inst = _tet_instance()
        one = build_cache.store_instance(key, inst)
        entry_mb = one.stat().st_size / 2**20
        # Room for ~2 entries: the third store must evict the coldest.
        monkeypatch.setenv(build_cache.MAX_MB_ENV, f"{2.5 * entry_mb:.6f}")
        keys = [key]
        for cells in (130, 140):
            k2, i2 = _tet_instance(cells=cells)
            os.utime(
                build_cache.entry_path(keys[-1]),
                ns=(0, len(keys) * 10**9),  # force distinct, old mtimes
            )
            build_cache.store_instance(k2, i2)
            keys.append(k2)
        survivors = {e["key"] for e in build_cache.list_entries()}
        assert keys[0] not in survivors  # coldest evicted
        assert keys[-1] in survivors  # newest kept
        assert build_cache.COUNTERS["evict"] >= 1

    def test_never_evicts_sole_newest_entry(self, cache_root, monkeypatch):
        monkeypatch.setenv(build_cache.MAX_MB_ENV, "0.000001")
        key, inst = _tet_instance()
        build_cache.store_instance(key, inst)
        assert build_cache.load_instance(key) is not None
        assert build_cache.COUNTERS["evict"] == 0


class TestAtomicity:
    """SIGKILL in the widest unsafe window never corrupts the cache."""

    _SCRIPT = textwrap.dedent(
        """
        import sys
        from repro import cache as build_cache
        from tests.test_cache import _tet_instance

        key, inst = _tet_instance()
        build_cache.store_instance(key, inst)
        print("stored", key)
        """
    )

    def _run(self, cache_root, fault=None):
        env = dict(
            os.environ,
            PYTHONPATH=f"{_REPO / 'src'}{os.pathsep}{_REPO}",
            **{build_cache.DIR_ENV: str(cache_root)},
        )
        if fault:
            env[build_cache.FAULT_ENV] = fault
        else:
            env.pop(build_cache.FAULT_ENV, None)
        return subprocess.run(
            [sys.executable, "-c", self._SCRIPT],
            env=env,
            cwd=_REPO,
            capture_output=True,
            text=True,
            timeout=120,
        )

    def test_sigkill_before_rename_leaves_no_corrupt_entry(self, cache_root):
        proc = self._run(cache_root, fault="sigkill:before_rename")
        assert proc.returncode == -signal.SIGKILL
        # No committed entry is visible; the only debris is a stray
        # *.tmp, which the leak probe reports and loads never touch.
        assert list(cache_root.glob(f"*{build_cache.ENTRY_SUFFIX}")) == []
        strays = list(cache_root.glob("*.tmp"))
        assert len(strays) == 1
        assert build_cache.list_corrupt_entries() == [strays[0].name]
        key, _ = _tet_instance()
        assert build_cache.load_instance(key) is None  # miss, not corrupt
        # A rerun without the fault commits a loadable entry.
        proc = self._run(cache_root)
        assert proc.returncode == 0, proc.stderr
        assert build_cache.load_instance(key) is not None

    def test_malformed_fault_spec_fails_loudly(self, cache_root, monkeypatch):
        monkeypatch.setenv(build_cache.FAULT_ENV, "pause")
        key, inst = _tet_instance()
        with pytest.raises(CacheError, match="malformed"):
            build_cache.store_instance(key, inst)


class TestProbeAndStats:
    def test_probe_reports_corrupt_and_stray(self, cache_root):
        key, inst = _tet_instance()
        path = build_cache.store_instance(key, inst)
        assert build_cache.list_corrupt_entries() == []
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        (cache_root / "leak.1234.tmp").write_bytes(b"partial")
        assert build_cache.list_corrupt_entries() == sorted(
            [path.name, "leak.1234.tmp"]
        )
        stats = build_cache.cache_stats()
        assert stats["enabled"] and stats["corrupt"]

    def test_list_entries_shows_error_not_raise(self, cache_root):
        key, inst = _tet_instance()
        path = build_cache.store_instance(key, inst)
        path.write_bytes(b"garbage")
        (rows,) = build_cache.list_entries()
        assert rows["key"] == key and "error" in rows

    def test_clear_cache_removes_entries_and_strays(self, cache_root):
        key, inst = _tet_instance()
        build_cache.store_instance(key, inst)
        (cache_root / "leak.1.tmp").write_bytes(b"x")
        assert build_cache.clear_cache() == 2
        assert build_cache.list_entries() == []
        assert build_cache.list_corrupt_entries() == []


class TestPublishFromCache:
    def test_publish_arrays_from_cache_hit(self, cache_root):
        """A cache hit publishes to shared memory without building Dags."""
        from repro.parallel import SharedInstanceStore, attach, detach_all

        key, inst = _tet_instance()
        inst.task_levels()
        build_cache.store_instance(key, inst)
        hit = build_cache.load_arrays(key)
        assert hit is not None
        meta, arrays = hit
        store = SharedInstanceStore.publish_arrays(meta, arrays)
        try:
            attached, blocks = attach(store.manifest)
            _assert_same_instance(inst, attached)
            assert blocks == {}
        finally:
            detach_all()
            store.close()


class TestServePublishHitEqualsMiss:
    def test_hit_payload_equals_miss_payload(self, cache_root):
        """The daemon's publish payload does not depend on whether the
        instance came from the disk cache: a hit is warmed for the
        request's algorithms exactly like a miss, so it ships the same
        union b-levels and descendant counts, byte for byte."""
        from repro.serve.instances import InstanceSpec, _load_or_build_arrays

        spec = InstanceSpec(mesh="tetonly", target_cells=300, mesh_seed=0, k=8)
        algorithms = ("dfds", "descendant")
        runner.clear_caches()
        try:
            miss_meta, miss = _load_or_build_arrays(spec, algorithms, "auto")
            assert build_cache.COUNTERS["store"] == 1
            miss = {name: np.array(arr) for name, arr in miss.items()}
            runner.clear_caches()
            hit_meta, hit = _load_or_build_arrays(spec, algorithms, "auto")
            assert build_cache.COUNTERS["hit"] == 1
        finally:
            runner.clear_caches()
        assert "union/b_level" in miss and "dag0/desc_exact" in miss
        assert sorted(hit) == sorted(miss)
        for name, arr in miss.items():
            assert hit[name].dtype == arr.dtype, name
            assert np.asarray(hit[name]).tobytes() == arr.tobytes(), name
        assert hit_meta == miss_meta


class TestRunnerIntegration:
    def test_grid_runner_hits_on_second_process_epoch(self, cache_root):
        config = ExperimentConfig(
            mesh="tetonly", target_cells=120, k=4, m_values=(2,),
            seeds=(0,), name="cache_probe",
        )
        runner.clear_caches()
        first = runner.get_instance(config)
        assert build_cache.COUNTERS["store"] == 1
        # Simulate a fresh process: drop in-memory memos, keep the disk.
        runner.clear_caches()
        second = runner.get_instance(config)
        assert build_cache.COUNTERS["hit"] == 1
        _assert_same_instance(first, second)
        runner.clear_caches()


class TestCacheCLI:
    def _cli(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def test_stats_disabled_exits_2(self, monkeypatch, capsys):
        monkeypatch.delenv(build_cache.DIR_ENV, raising=False)
        assert self._cli("cache", "stats") == 2
        assert "disabled" in capsys.readouterr().err

    def test_stats_ls_clear_healthy(self, cache_root, capsys):
        key, inst = _tet_instance()
        build_cache.store_instance(key, inst)
        assert self._cli("cache", "stats", "--dir", str(cache_root)) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "no corrupt" in out
        assert self._cli("cache", "ls", "--dir", str(cache_root)) == 0
        assert key in capsys.readouterr().out
        assert self._cli("cache", "clear", "--dir", str(cache_root)) == 0
        assert build_cache.list_entries() == []

    def test_stats_corrupt_exits_1(self, cache_root, capsys):
        key, inst = _tet_instance()
        path = build_cache.store_instance(key, inst)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert self._cli("cache", "stats", "--dir", str(cache_root)) == 1
        assert "CORRUPT" in capsys.readouterr().out
