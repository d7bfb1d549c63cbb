"""Shared utilities: errors, RNG handling, timing, array helpers.

These modules are intentionally dependency-light; everything else in
:mod:`repro` builds on top of them.
"""

from repro.util.errors import (
    ReproError,
    InvalidInstanceError,
    InvalidScheduleError,
    PartitionError,
    MeshError,
)
# SeedLike (the seed-argument alias) lives in repro.util.rng; it is a
# typing construct, not a callable export, so it stays out of __all__.
from repro.util.rng import as_rng, spawn_rng, spawn_rngs
from repro.util.timing import now

__all__ = [
    "ReproError",
    "InvalidInstanceError",
    "InvalidScheduleError",
    "PartitionError",
    "MeshError",
    "as_rng",
    "spawn_rng",
    "spawn_rngs",
    "now",
]
