"""Tests for the util layer (rng, errors, timing)."""

import numpy as np
import pytest

from repro.util import (
    InvalidInstanceError,
    InvalidScheduleError,
    MeshError,
    PartitionError,
    ReproError,
    as_rng,
    spawn_rngs,
)


class TestRng:
    def test_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_int_seed_deterministic(self):
        assert as_rng(5).integers(1000) == as_rng(5).integers(1000)

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert as_rng(g) is g

    def test_seed_sequence_accepted(self):
        ss = np.random.SeedSequence(42)
        assert isinstance(as_rng(ss), np.random.Generator)

    def test_spawn_independent_streams(self):
        a, b = spawn_rngs(0, 2)
        assert a.integers(10**9) != b.integers(10**9)

    def test_spawn_deterministic(self):
        x = [g.integers(10**9) for g in spawn_rngs(7, 3)]
        y = [g.integers(10**9) for g in spawn_rngs(7, 3)]
        assert x == y

    def test_spawn_from_generator(self):
        children = spawn_rngs(np.random.default_rng(0), 2)
        assert len(children) == 2
        assert children[0].integers(10**9) != children[1].integers(10**9)

    def test_spawn_zero(self):
        assert spawn_rngs(0, 0) == []

    def test_spawn_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            spawn_rngs(0, -1)


class TestErrors:
    @pytest.mark.parametrize(
        "exc",
        [InvalidInstanceError, InvalidScheduleError, PartitionError, MeshError],
    )
    def test_hierarchy(self, exc):
        assert issubclass(exc, ReproError)
        with pytest.raises(ReproError):
            raise exc("boom")


class TestTiming:
    def test_now_is_the_only_export(self):
        from repro.util import timing

        assert timing.__all__ == ["now"]
        a = timing.now()
        assert timing.now() >= a
