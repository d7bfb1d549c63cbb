"""Lifecycle battery for the ``repro serve`` daemon.

Three layers, mirroring the subsystem's planes:

* **In-process** — protocol framing/validation, admission gate
  semantics, and the pin-aware LRU registry (eviction must *never*
  touch an instance with in-flight leases).
* **Daemon subprocess** — a real ``python -m repro serve`` process
  driven over its unix socket: 50 pipelined schedule requests must come
  back bit-identical to a serial ``run_grid`` over the same cells
  (checksum-locked per cell *and* after row aggregation), deadlines
  must expire into typed errors instead of stale results, and a
  saturated admission queue must refuse with ``overloaded``.
* **Drain** — SIGTERM on a daemon with resident instances must exit 0
  and leave zero orphan shm segments (the subprocess-kill pattern of
  ``tests/test_campaign_resume.py``), with the socket file removed.
"""

import os
import signal
import socket as socket_mod
import subprocess
import sys
from pathlib import Path

import pytest

from repro.parallel import list_orphan_segments
from repro.serve import protocol
from repro.serve.admission import AdmissionController
from repro.serve.client import ServeClient, parse_address
from repro.serve.instances import InstanceRegistry, InstanceSpec
from repro.util.errors import ServeError

ROOT = Path(__file__).resolve().parent.parent

#: The instance every daemon test schedules against (small and 2-D so
#: a chunk of 50 cells stays in smoke territory).
INSTANCE = {"mesh": "square2d", "target_cells": 120, "mesh_seed": 0, "k": 2}


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_frame_roundtrip(self):
        payload = {"v": 1, "id": 3, "kind": "status"}
        data = protocol.encode_frame(payload)
        assert protocol.frame_length(data[:4]) == len(data) - 4
        assert protocol.decode_frame(data[4:]) == payload

    def test_oversized_length_prefix_refused(self):
        import struct

        prefix = struct.pack("<I", protocol.MAX_FRAME_BYTES + 1)
        with pytest.raises(ServeError) as err:
            protocol.frame_length(prefix)
        assert err.value.code == protocol.E_BAD_REQUEST

    def test_undecodable_frame_refused(self):
        with pytest.raises(ServeError):
            protocol.decode_frame(b"\xff\xfe not json")
        with pytest.raises(ServeError):
            protocol.decode_frame(b"[1, 2]")  # not an object

    def test_validate_rejects_wrong_version_and_kind(self):
        with pytest.raises(ServeError) as err:
            protocol.validate_request({"v": 99, "id": 1, "kind": "status"})
        assert err.value.code == protocol.E_UNSUPPORTED_VERSION
        with pytest.raises(ServeError) as err:
            protocol.validate_request({"v": 1, "id": 1, "kind": "dance"})
        assert err.value.code == protocol.E_UNKNOWN_KIND

    def test_validate_schedule_needs_typed_fields(self):
        base = {
            "v": 1, "id": 1, "kind": "schedule", "instance": dict(INSTANCE),
            "algorithm": "fifo", "m": 4, "block_size": 1, "seed": 0,
        }
        assert protocol.validate_request(dict(base)) is not None
        for broken in (
            {**base, "m": "four"},
            {**base, "m": True},  # bools must not pass as ints
            {**base, "instance": {**INSTANCE, "k": None}},
            {**base, "deadline_s": -1.0},
        ):
            with pytest.raises(ServeError) as err:
                protocol.validate_request(broken)
            assert err.value.code == protocol.E_BAD_REQUEST

    def test_error_payload_roundtrip(self):
        response = protocol.error_response(
            7, protocol.E_OVERLOADED, "queue full", retry_after=0.25
        )
        err = protocol.error_from_payload(response)
        assert err.code == protocol.E_OVERLOADED
        assert err.retry_after == 0.25

    def test_parse_address(self):
        assert parse_address("/tmp/x.sock") == ("unix", "/tmp/x.sock")
        assert parse_address("tcp:127.0.0.1:900") == (
            "tcp", ("127.0.0.1", 900)
        )
        with pytest.raises(ServeError):
            parse_address("tcp:no-port")


# ---------------------------------------------------------------------------
# Admission
# ---------------------------------------------------------------------------


def _controller(max_pending=2, max_bytes=1 << 30):
    return AdmissionController(
        InstanceRegistry(max_bytes=max_bytes), max_pending=max_pending
    )


class TestAdmission:
    def test_bounded_queue_refuses_with_retry_after(self):
        gate = _controller(max_pending=2)
        gate.admit("schedule")
        gate.admit("schedule")
        with pytest.raises(ServeError) as err:
            gate.admit("schedule")
        assert err.value.code == protocol.E_OVERLOADED
        assert err.value.retry_after is not None
        gate.release()
        gate.admit("schedule")  # a slot freed; admission resumes

    def test_drain_refuses_new_work(self):
        gate = _controller()
        gate.begin_drain()
        with pytest.raises(ServeError) as err:
            gate.admit("schedule")
        assert err.value.code == protocol.E_SHUTTING_DOWN

    def test_expired_deadline_raises_typed_error(self):
        gate = _controller()
        assert gate.stamp_deadline(None) is None
        deadline = gate.stamp_deadline(1e-9)
        with pytest.raises(ServeError) as err:
            gate.check_deadline(deadline)
        assert err.value.code == protocol.E_DEADLINE_EXCEEDED


# ---------------------------------------------------------------------------
# Registry: pinned LRU
# ---------------------------------------------------------------------------


def _spec(seed: int) -> InstanceSpec:
    return InstanceSpec(
        mesh="square2d", target_cells=120, mesh_seed=seed, k=2
    )


class TestRegistry:
    def test_hit_miss_counters_and_identity(self):
        registry = InstanceRegistry()
        try:
            a1 = registry.get_or_publish(_spec(0))
            a2 = registry.get_or_publish(_spec(0))
            assert a1 is a2
            assert registry.counters == {
                "hits": 1, "misses": 1, "evictions": 0,
            }
        finally:
            registry.close_all()
        assert list_orphan_segments() == []

    def test_eviction_never_touches_pinned_entries(self):
        # Budget of one byte: every publish is over budget, so any
        # unpinned resident entry is immediately evictable.
        registry = InstanceRegistry(max_bytes=1)
        try:
            a = registry.get_or_publish(_spec(0))
            lease = registry.pin(a)

            b = registry.get_or_publish(_spec(1))
            keys = {e["key"] for e in registry.snapshot()["instances"]}
            # A is pinned by an in-flight request: still resident even
            # though the registry is far over budget.
            assert a.key in keys and b.key in keys
            assert registry.counters["evictions"] == 0

            lease.release()
            c = registry.get_or_publish(_spec(2))
            keys = {e["key"] for e in registry.snapshot()["instances"]}
            # Unpinned now: the LRU pass reclaims A and B; the entry
            # being published is exempt.
            assert a.key not in keys and b.key not in keys
            assert c.key in keys
            assert registry.counters["evictions"] == 2
        finally:
            registry.close_all()
        assert list_orphan_segments() == []

    def test_evicted_instances_are_not_retained(self, monkeypatch):
        # The registry's byte budget is the daemon's memory bound: no
        # mesh, instance or labelling a publish built may outlive the
        # publish in a process-wide memo — the segment is the only copy.
        import gc
        import weakref

        from repro.experiments import runner

        refs = []

        def tracking(build):
            def wrapper(*args, **kwargs):
                product = build(*args, **kwargs)
                refs.append((build.__name__, weakref.ref(product)))
                return product
            return wrapper

        for name in ("make_mesh", "build_instance", "partition_mesh_blocks"):
            monkeypatch.setattr(runner, name, tracking(getattr(runner, name)))
        runner.clear_caches()
        registry = InstanceRegistry(max_bytes=1)
        try:
            for seed in range(4):
                spec = InstanceSpec(
                    mesh="tetonly", target_cells=600, mesh_seed=seed, k=4
                )
                registry.get_or_publish(
                    spec, block_sizes=(16,), algorithms=("dfds",)
                )
            assert len(registry.snapshot()["instances"]) == 1
            assert registry.counters["evictions"] == 3
            gc.collect()
            built = sorted(name for name, _ in refs)
            assert built == sorted(
                ["make_mesh", "build_instance", "partition_mesh_blocks"] * 4
            )
            alive = sorted(name for name, ref in refs if ref() is not None)
            assert alive == []
        finally:
            registry.close_all()
            runner.clear_caches()
        assert list_orphan_segments() == []

    def test_block_extension_retires_leased_segment(self):
        registry = InstanceRegistry()
        try:
            entry = registry.get_or_publish(_spec(0), block_sizes=(2,))
            lease = registry.pin(entry)
            old_segment = lease.manifest.segment

            extended = registry.get_or_publish(_spec(0), block_sizes=(4,))
            assert extended is entry
            assert entry.block_sizes == (2, 4)
            assert entry.manifest.segment != old_segment
            # The old segment is retired, not unlinked: the in-flight
            # lease still reads from it.
            assert any(
                h.manifest.segment == old_segment for h in entry.retired
            )
            lease.release()
            assert entry.retired == []
        finally:
            registry.close_all()
        assert list_orphan_segments() == []

    def test_budget_shedding_predicate(self):
        registry = InstanceRegistry(max_bytes=1)
        try:
            entry = registry.get_or_publish(_spec(0))
            assert not registry.would_exceed_budget()  # evictable, not pinned
            lease = registry.pin(entry)
            assert registry.would_exceed_budget()  # every byte is pinned
            lease.release()
        finally:
            registry.close_all()

    def test_close_all_with_live_lease_fails_loudly(self):
        registry = InstanceRegistry()
        entry = registry.get_or_publish(_spec(0))
        lease = registry.pin(entry)
        with pytest.raises(ServeError, match="live leases"):
            registry.close_all()
        lease.release()
        # Entries were detached from the registry before the check; the
        # segment itself is only reclaimed here.
        entry.handle.store.close()
        assert list_orphan_segments() == []


# ---------------------------------------------------------------------------
# Daemon subprocess battery
# ---------------------------------------------------------------------------


def _spawn_daemon(tmp_path: Path, *extra: str):
    """Start ``python -m repro serve`` and wait for its ready line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    sock = tmp_path / "serve.sock"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--socket", str(sock), *extra],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    if "ready" not in line:
        proc.kill()
        raise RuntimeError(f"daemon failed to start: {proc.stderr.read()}")
    return proc, str(sock)


def _terminate(proc) -> int:
    proc.send_signal(signal.SIGTERM)
    proc.communicate(timeout=120)
    return proc.returncode


@pytest.mark.grid_smoke
class TestDaemonBattery:
    def test_fifty_pipelined_requests_bit_identical_to_run_grid(
        self, tmp_path
    ):
        from repro.experiments.runner import (
            aggregate_row,
            clear_caches,
            run_grid,
        )

        algorithms = ("fifo", "random_delay_priority")
        seeds = tuple(range(25))
        proc, sock = _spawn_daemon(tmp_path, "--workers", "2")
        try:
            with ServeClient.wait_ready(sock) as client:
                requests = [
                    {
                        "instance": dict(INSTANCE),
                        "algorithm": algorithm,
                        "m": 4,
                        "block_size": 1,
                        "seed": seed,
                        "engine": "auto",
                        "with_comm": True,
                    }
                    for algorithm in algorithms
                    for seed in seeds
                ]
                assert len(requests) == 50
                summaries = client.schedule_many(requests)
                status = client.status()
        finally:
            assert _terminate(proc) == 0

        # The daemon actually batched: 50 cells in far fewer chunks.
        batcher = status["batcher"]
        assert batcher["cells_dispatched"] == 50
        assert batcher["chunks_dispatched"] < 50

        # Bit-identity against the serial runner: fold the daemon's
        # per-cell summaries (request order == the canonical grid_cells
        # order) through the same row aggregation run_grid uses.
        from repro.experiments.configs import ExperimentConfig

        config = ExperimentConfig(
            **INSTANCE, algorithms=algorithms, m_values=(4,), seeds=seeds,
        )
        clear_caches()
        rows = run_grid(config, with_comm=True)
        served_rows = [
            aggregate_row(
                summaries[i * len(seeds):(i + 1) * len(seeds)],
                algorithm, 4, 1,
            )
            for i, algorithm in enumerate(algorithms)
        ]
        assert served_rows == rows
        assert list_orphan_segments() == []

    def test_deadline_expires_into_typed_error_not_stale_result(
        self, tmp_path
    ):
        # A coalescing window much longer than the deadline guarantees
        # expiry while queued — the daemon must answer with the typed
        # error, never block or return a stale result.
        proc, sock = _spawn_daemon(
            tmp_path, "--workers", "1", "--max-delay-ms", "400"
        )
        try:
            with ServeClient.wait_ready(sock) as client:
                client.publish(dict(INSTANCE))  # isolate queueing time
                with pytest.raises(ServeError) as err:
                    client.schedule(
                        dict(INSTANCE), "fifo", 4, 1, 0, deadline_s=0.05
                    )
                assert err.value.code == protocol.E_DEADLINE_EXCEEDED
                # The daemon survives and still answers.
                assert client.status()["pid"] == proc.pid
        finally:
            assert _terminate(proc) == 0
        assert list_orphan_segments() == []

    def test_saturated_queue_refuses_overloaded(self, tmp_path):
        proc, sock = _spawn_daemon(
            tmp_path, "--workers", "1",
            "--max-pending", "1", "--max-delay-ms", "300",
        )
        try:
            with ServeClient.wait_ready(sock) as client:
                client.publish(dict(INSTANCE))
                results = client.schedule_many(
                    [
                        {
                            "instance": dict(INSTANCE),
                            "algorithm": "fifo",
                            "m": 4,
                            "block_size": 1,
                            "seed": seed,
                        }
                        for seed in range(4)
                    ],
                    on_error="return",
                )
            refused = [r for r in results if isinstance(r, ServeError)]
            served = [r for r in results if not isinstance(r, ServeError)]
            assert served, "the admitted request must still be answered"
            assert refused, "a saturated queue must shed load"
            assert all(
                r.code == protocol.E_OVERLOADED and r.retry_after is not None
                for r in refused
            )
        finally:
            assert _terminate(proc) == 0
        assert list_orphan_segments() == []

    def test_sigterm_drain_leaves_zero_orphans(self, tmp_path):
        proc, sock = _spawn_daemon(tmp_path, "--workers", "2")
        try:
            with ServeClient.wait_ready(sock) as client:
                # Resident state to clean up: a published instance with
                # block labellings, plus completed schedule traffic.
                client.publish(dict(INSTANCE), block_sizes=[4])
                client.schedule(dict(INSTANCE), "fifo", 4, 1, 0)
                assert client.status()["registry"]["resident_bytes"] > 0
        finally:
            returncode = _terminate(proc)
        assert returncode == 0
        assert list_orphan_segments() == []
        assert not os.path.exists(sock)
        # And a refused-after-drain connection fails cleanly rather
        # than hanging.
        with pytest.raises((FileNotFoundError, ConnectionError, OSError)):
            sock_obj = socket_mod.socket(
                socket_mod.AF_UNIX, socket_mod.SOCK_STREAM
            )
            try:
                sock_obj.connect(sock)
            finally:
                sock_obj.close()
