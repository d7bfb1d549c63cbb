"""Tests for the shared-memory instance store (``repro.parallel.shm_store``).

In-process coverage of the publish/attach wire format and lifecycle:
round-trip fidelity (arrays, memo caches, partition labellings),
read-only zero-copy views, idempotent unlink, and the orphan-segment
scan the leak checks build on.  Cross-process behaviour is covered by
``tests/test_parallel_grid.py`` through the real dispatcher.
"""

import numpy as np
import pytest

from repro.core.dag import Dag
from repro.experiments.configs import ExperimentConfig
from repro.experiments.runner import get_blocks, get_instance
from repro.parallel import (
    SHM_PREFIX,
    SharedInstanceStore,
    attach,
    detach_all,
    list_orphan_segments,
    warm_instance,
)
from repro.util.errors import InvalidInstanceError

TINY = ExperimentConfig(
    mesh="square2d", target_cells=120, k=4,
    block_sizes=(1, 8),
)


@pytest.fixture
def inst():
    return get_instance(TINY)


def _segment_exists(name: str) -> bool:
    return name in list_orphan_segments()


class TestRoundTrip:
    def test_instance_arrays_survive(self, inst):
        with SharedInstanceStore.publish(inst) as store:
            got, blocks = attach(store.manifest)
            assert blocks == {}
            assert got.n_cells == inst.n_cells
            assert got.k == inst.k
            assert got.name == inst.name
            for a, b in zip(inst.dags, got.dags):
                assert np.array_equal(a.edges, b.edges)
            detach_all()

    def test_blocks_travel_with_instance(self, inst):
        labels = get_blocks(TINY, 8)
        with SharedInstanceStore.publish(inst, blocks={8: labels}) as store:
            assert store.manifest.block_sizes == (8,)
            _, blocks = attach(store.manifest)
            assert set(blocks) == {8}
            assert np.array_equal(blocks[8], labels)
            detach_all()

    def test_warmed_caches_are_adopted_not_recomputed(self, inst):
        warm_instance(inst, ("descendant", "dfds"))
        with SharedInstanceStore.publish(inst) as store:
            got, _ = attach(store.manifest)
            union = got.union_dag()
            # Adopted caches are already materialised on the attached side …
            assert union._num_levels is not None
            assert union._topo_order is not None
            assert union._b_level is not None
            for g in got.dags:
                assert g._desc_exact is not None
            # … and they carry the same values the parent computed.
            parent_union = inst.union_dag()
            assert union.num_levels() == parent_union.num_levels()
            assert np.array_equal(union._b_level, parent_union._b_level)
            for a, b in zip(inst.dags, got.dags):
                assert np.array_equal(a._desc_exact, b._desc_exact)
            detach_all()

    def test_attached_views_are_read_only(self, inst):
        with SharedInstanceStore.publish(inst) as store:
            got, _ = attach(store.manifest)
            with pytest.raises(ValueError):
                got.dags[0].edges[0, 0] = 7
            detach_all()

    def test_attach_is_memoised_per_segment(self, inst):
        with SharedInstanceStore.publish(inst) as store:
            first, _ = attach(store.manifest)
            second, _ = attach(store.manifest)
            assert first is second
            detach_all()


class TestLifecycle:
    def test_close_unlinks_segment(self, inst):
        store = SharedInstanceStore.publish(inst)
        name = store.manifest.segment
        assert _segment_exists(name)
        store.close()
        assert not _segment_exists(name)

    def test_close_is_idempotent(self, inst):
        store = SharedInstanceStore.publish(inst)
        store.close()
        store.close()  # second close must not raise

    def test_context_manager_cleans_up_on_error(self, inst):
        with pytest.raises(RuntimeError, match="boom"):
            with SharedInstanceStore.publish(inst) as store:
                name = store.manifest.segment
                assert _segment_exists(name)
                raise RuntimeError("boom")
        assert not _segment_exists(name)

    def test_no_orphans_after_full_cycle(self, inst):
        with SharedInstanceStore.publish(inst) as store:
            attach(store.manifest)
            detach_all()
        assert list_orphan_segments() == []


class TestOrphanScan:
    def test_scan_sees_prefixed_segments_only(self):
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(
            name=f"{SHM_PREFIX}orphan_probe", create=True, size=64
        )
        try:
            assert f"{SHM_PREFIX}orphan_probe" in list_orphan_segments()
        finally:
            shm.close()
            shm.unlink()
        assert f"{SHM_PREFIX}orphan_probe" not in list_orphan_segments()


class TestCacheWireFormat:
    def test_adopt_rejects_unknown_array_key(self):
        g = Dag(3, np.array([[0, 1], [1, 2]]))
        with pytest.raises(InvalidInstanceError, match="unknown cache array"):
            g.adopt_caches({}, {"not_a_cache": np.zeros(3)})

    def test_adopt_rejects_unknown_scalar_key(self):
        g = Dag(3, np.array([[0, 1], [1, 2]]))
        with pytest.raises(InvalidInstanceError, match="unknown cache scalar"):
            g.adopt_caches({"bogus": 1}, {})

    def test_adopt_requires_padded_companion(self):
        # A lone padded_P (the retired padded successor matrix's wire key)
        # is still refused: it is no longer a cache slot at all, so it
        # fails as an unknown key rather than for lacking its companion.
        g = Dag(3, np.array([[0, 1], [1, 2]]))
        with pytest.raises(InvalidInstanceError, match="unknown cache array"):
            g.adopt_caches({}, {"padded_P": np.zeros((1, 1), dtype=np.int64)})

    def test_export_roundtrips_through_adopt(self):
        g = Dag(4, np.array([[0, 1], [1, 2], [2, 3]]))
        g.num_levels()
        g.b_levels()
        scalars, arrays = g.export_caches()
        fresh = Dag(4, g.edges, validate=False)
        fresh.adopt_caches(scalars, arrays)
        assert fresh.num_levels() == g.num_levels()
        assert np.array_equal(fresh.b_levels(), g.b_levels())
