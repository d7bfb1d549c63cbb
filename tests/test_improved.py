"""Tests for Algorithm 3 (Improved Random Delay)."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import (
    improved_random_delay_schedule,
    preprocess_levels,
)
from repro.util.errors import InvalidScheduleError

from .strategies import sweep_instances


class TestPreprocessing:
    def test_width_at_most_m(self, tet_instance):
        """The whole point of step 1: every preprocessed layer holds at
        most m tasks (over all directions combined)."""
        m = 4
        levels = preprocess_levels(tet_instance, m)
        counts = np.bincount(levels)
        assert counts.max() <= m

    def test_precedence_respected_within_directions(self, tet_instance):
        levels = preprocess_levels(tet_instance, 4)
        union = tet_instance.union_dag()
        src, dst = union.edges[:, 0], union.edges[:, 1]
        assert np.all(levels[src] < levels[dst])

    def test_deterministic(self, tet_instance):
        a = preprocess_levels(tet_instance, 4)
        b = preprocess_levels(tet_instance, 4)
        assert np.array_equal(a, b)


class TestAlgorithm3:
    def test_feasible(self, tet_instance):
        s = improved_random_delay_schedule(tet_instance, 8, seed=0)
        s.validate()

    def test_priorities_variant_feasible_and_compact(self, tet_instance):
        layered = improved_random_delay_schedule(tet_instance, 8, seed=5)
        compact = improved_random_delay_schedule(
            tet_instance, 8, seed=5, priorities=True
        )
        compact.validate()
        assert compact.makespan <= layered.makespan
        assert compact.meta["algorithm"] == "improved_random_delay_priority"

    def test_meta_records_preprocess_makespan(self, tet_instance):
        s = improved_random_delay_schedule(tet_instance, 8, seed=0)
        t = s.meta["preprocess_makespan"]
        assert t == int(preprocess_levels(tet_instance, 8).max()) + 1

    def test_reuse_preprocessed_levels(self, tet_instance):
        pre = preprocess_levels(tet_instance, 8)
        a = improved_random_delay_schedule(
            tet_instance, 8, seed=9, preprocessed=pre
        )
        b = improved_random_delay_schedule(tet_instance, 8, seed=9)
        assert np.array_equal(a.start, b.start)

    def test_rejects_bad_preprocessed_shape(self, chain_instance):
        with pytest.raises(InvalidScheduleError, match="preprocessed"):
            improved_random_delay_schedule(
                chain_instance, 2, seed=0, preprocessed=np.zeros(3, dtype=int)
            )

    @pytest.mark.parametrize("priorities", [False, True])
    def test_rejects_bad_delays_shape(self, chain_instance, priorities):
        # A typed error, not a numpy broadcast ValueError.
        with pytest.raises(InvalidScheduleError, match="delays has shape"):
            improved_random_delay_schedule(
                chain_instance, 2, seed=0, priorities=priorities,
                delays=np.zeros(chain_instance.k + 1, dtype=np.int64),
            )

    def test_explicit_delays_and_assignment(self, chain_instance):
        s = improved_random_delay_schedule(
            chain_instance,
            2,
            delays=np.array([0, 1]),
            assignment=np.array([0, 0, 1, 1]),
        )
        s.validate()
        assert list(s.meta["delays"]) == [0, 1]

    @given(sweep_instances())
    @settings(max_examples=20, deadline=None)
    def test_always_feasible(self, inst):
        s = improved_random_delay_schedule(inst, 2, seed=0)
        s.validate()

    @given(sweep_instances(max_n=12, max_k=3))
    @settings(max_examples=15, deadline=None)
    def test_preprocess_width_property(self, inst):
        m = 2
        levels = preprocess_levels(inst, m)
        assert np.bincount(levels).max() <= m
