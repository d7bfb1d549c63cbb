"""Tests for the runtime shared-memory sanitizer (``REPRO_SANITIZE=1``).

The static lint rule RPL003 proves attach-side views are *built*
read-only; these tests cover the dynamic half: digest stamping at
publish, verification at attach / per-chunk / store close, and the
poisoned views that turn any write through an attached array into an
immediate ``ValueError``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.configs import ExperimentConfig
from repro.experiments.runner import get_instance
from repro.parallel import (
    SharedInstanceStore,
    attach,
    detach_all,
    verify_attached,
)
from repro.parallel.sanitize import (
    check_digest,
    poison_views,
    sanitize_enabled,
    segment_digest,
)
from repro.util.errors import SanitizerError

TINY = ExperimentConfig(
    mesh="square2d", target_cells=120, k=4,
    block_sizes=(1, 8),
)


@pytest.fixture
def inst():
    return get_instance(TINY)


@pytest.fixture
def sanitized(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")


class TestEnableFlag:
    def test_parsing(self, monkeypatch):
        for off in ("", "0"):
            monkeypatch.setenv("REPRO_SANITIZE", off)
            assert not sanitize_enabled()
        monkeypatch.delenv("REPRO_SANITIZE")
        assert not sanitize_enabled()
        for on in ("1", "yes", "2"):
            monkeypatch.setenv("REPRO_SANITIZE", on)
            assert sanitize_enabled()

    def test_digest_only_stamped_when_enabled(self, inst, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        with SharedInstanceStore.publish(inst) as store:
            assert store.manifest.digest is None
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        with SharedInstanceStore.publish(inst) as store:
            digest = store.manifest.digest
            assert digest is not None
            assert digest == segment_digest(store._shm.buf)
            detach_all()


class TestPoisonedViews:
    def test_write_through_attached_view_raises(self, inst, sanitized):
        with SharedInstanceStore.publish(inst) as store:
            got, _ = attach(store.manifest)
            edges = got.dags[0].edges
            assert not edges.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                edges[0, 0] = 99
            detach_all()

    def test_poison_views_rejects_writable_alias(self):
        views = {"ok": np.zeros(3), "leak": np.zeros(3)}
        for v in views.values():
            v.flags.writeable = False
        views["leak"].flags.writeable = True
        with pytest.raises(SanitizerError, match="leak"):
            poison_views(views, "test")

    def test_poison_views_passes_when_all_frozen(self):
        v = np.zeros(3)
        v.flags.writeable = False
        poison_views({"a": v}, "test")  # must not raise


class TestDigestVerification:
    def test_clean_round_trip(self, inst, sanitized):
        with SharedInstanceStore.publish(inst) as store:
            got, _ = attach(store.manifest)
            assert got.n_cells == inst.n_cells
            verify_attached(store.manifest)  # worker-chunk check passes
            detach_all()
        # close() re-verified the digest and unlinked without raising.

    def test_check_digest_is_noop_without_expectation(self):
        check_digest(memoryview(b"anything"), None, "test")

    def test_corruption_caught_at_attach(self, inst, sanitized):
        store = SharedInstanceStore.publish(inst)
        try:
            store._shm.buf[0] ^= 0xFF
            with pytest.raises(SanitizerError, match="attach"):
                attach(store.manifest)
        finally:
            detach_all()
            store._shm.buf[0] ^= 0xFF  # restore so close() verifies clean
            store.close()

    def test_corruption_caught_at_worker_chunk(self, inst, sanitized):
        store = SharedInstanceStore.publish(inst)
        try:
            attach(store.manifest)
            store._shm.buf[0] ^= 0xFF  # stray write between chunks
            with pytest.raises(SanitizerError, match="worker chunk"):
                verify_attached(store.manifest)
        finally:
            detach_all()
            store._shm.buf[0] ^= 0xFF
            store.close()

    def test_corruption_caught_at_store_close(self, inst, sanitized):
        store = SharedInstanceStore.publish(inst)
        store._shm.buf[0] ^= 0xFF
        with pytest.raises(SanitizerError, match="store close"):
            store.close()
        # The failed close left the segment linked so the evidence
        # survives; restore and close for real.
        store._shm.buf[0] ^= 0xFF
        store.close()

    def test_error_names_the_stage_and_digests(self, inst, sanitized):
        store = SharedInstanceStore.publish(inst)
        store._shm.buf[0] ^= 0xFF
        with pytest.raises(SanitizerError) as exc:
            store.close()
        msg = str(exc.value)
        assert "store close" in msg
        assert store.manifest.digest in msg
        store._shm.buf[0] ^= 0xFF
        store.close()


class TestDisabledIsFree:
    def test_attach_and_close_skip_checks(self, inst, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        with SharedInstanceStore.publish(inst) as store:
            got, _ = attach(store.manifest)
            # Views are read-only regardless of the sanitizer (RPL003's
            # static guarantee) — the flag only adds digest checks.
            assert not got.dags[0].edges.flags.writeable
            store._shm.buf[0] ^= 0xFF  # corruption goes undetected
            verify_attached(store.manifest)
            detach_all()


class TestTracingCompose:
    """``REPRO_SANITIZE=1`` and ``REPRO_TRACE`` compose.

    The per-chunk digest verification shows up as a span on the
    success path, and a :class:`SanitizerError` raised mid-chunk still
    flushes every buffered span back to the parent via the payload
    attached to the exception (the no-silent-trace-loss contract).
    """

    @pytest.fixture
    def traced(self):
        from repro import obs

        was = obs.tracing_enabled()
        obs.reset()
        obs.enable_tracing()
        yield obs
        obs.reset()
        if not was:
            obs.disable_tracing()

    @staticmethod
    def _cells():
        from repro.parallel.dispatcher import GridCell

        return [GridCell(0, "random_delay_priority", 4, 1, 0)]

    def test_verify_chunk_appears_as_span(self, inst, sanitized, traced):
        from repro.parallel.worker import run_chunk

        with SharedInstanceStore.publish(inst) as store:
            pairs, _rss, payload = run_chunk(
                store.manifest, self._cells(), False, "auto", True
            )
            detach_all()
        assert len(pairs) == 1
        names = [s.name for s in payload["spans"]]
        assert "sanitize.verify_chunk" in names
        assert "worker.cell" in names
        # The verification span nests inside the chunk span.
        by_name = {s.name: s for s in payload["spans"]}
        assert by_name["sanitize.verify_chunk"].depth \
            > by_name["worker.chunk"].depth

    def test_sanitizer_error_mid_chunk_flushes_spans(
        self, inst, sanitized, traced
    ):
        from repro.parallel.worker import run_chunk

        store = SharedInstanceStore.publish(inst)
        try:
            attach(store.manifest)  # clean memoised attach
            store._shm.buf[0] ^= 0xFF  # stray write mid-chunk
            with pytest.raises(SanitizerError) as excinfo:
                run_chunk(store.manifest, self._cells(), False, "auto", True)
            # The payload rode the exception across the (would-be)
            # process boundary; recovering it ingests the worker spans.
            assert traced.recover_payload_from_exception(excinfo.value)
            names = {s.name for s in traced.drain_spans()}
            # The cell finished before verification failed, and the
            # interrupted chunk/verify spans flushed on exception.
            assert {"worker.cell", "worker.chunk",
                    "sanitize.verify_chunk"} <= names
        finally:
            detach_all()
            store._shm.buf[0] ^= 0xFF
            store.close()
