"""Resident-instance registry of the scheduling daemon.

The daemon's whole value is amortisation: an instance is published into
shared memory **once** and then serves thousands of schedule requests.
This module owns that residency:

* **Identity** — an instance is named by its content key
  (:func:`repro.experiments.runner.instance_cache_key`), the same
  blake2b digest the on-disk build cache uses, so "resident in the
  daemon" and "cached on disk" are one identity.
* **Hydration** — a publish calls the runner's un-memoised
  :func:`~repro.experiments.runner.load_or_build`: the instance and each
  block labelling is a :mod:`repro.cache` hit (adopted zero-copy) or is
  built and stored.  Hit or miss, the instance is warmed for the
  request's algorithms before publish.  The segment is the only copy
  kept, so an evicted instance leaves no mesh, instance or labelling.
* **Pinned LRU eviction** — residency is byte-accounted against a
  budget; eviction walks least-recently-used entries but **never evicts
  an instance with in-flight requests** (``pins > 0``).  A request pins
  the concrete shared segment it dispatches against (a
  :class:`Lease`), so even a block-size republish that swaps the
  entry's segment keeps the old one alive until its last lease drains.

Gauges ``serve.instances.{hits,misses,evictions,resident_bytes}`` mirror
the registry counters onto the obs metrics plane.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import NamedTuple

from repro import obs
from repro.util.errors import ServeError

__all__ = ["InstanceSpec", "ResidentInstance", "Lease", "InstanceRegistry"]

#: Default residency budget: generous for test/CI meshes, small enough
#: that a runaway publisher hits backpressure before the host swaps.
DEFAULT_MAX_RESIDENT_BYTES = 512 * 1024 * 1024


class InstanceSpec(NamedTuple):
    """The mesh-derived instance a request runs against, in the argument
    order of :func:`~repro.experiments.runner.load_or_build`."""

    mesh: str
    target_cells: int
    mesh_seed: int
    k: int

    @classmethod
    def from_payload(cls, payload: dict) -> "InstanceSpec":
        """Build from a validated request's ``instance`` object."""
        return cls(*(payload[name] for name in cls._fields))


class _StoreHandle:
    """One published segment plus its in-flight lease count."""

    def __init__(self, store) -> None:
        self.store = store
        self.nbytes: int = store._shm.size
        self.pins: int = 0
        self.retired: bool = False

    @property
    def manifest(self):
        return self.store.manifest


@dataclass
class ResidentInstance:
    """One registry entry: identity, current segment, accounting."""

    key: str
    spec: InstanceSpec
    handle: _StoreHandle
    block_sizes: tuple = ()
    #: LRU clock tick of the last touch (monotonic per registry).
    seq: int = 0
    #: Sum of in-flight leases across current + retired segments.
    pins: int = 0
    #: Segments swapped out by a block-size republish but still leased.
    retired: list = field(default_factory=list)

    @property
    def manifest(self):
        return self.handle.manifest

    @property
    def nbytes(self) -> int:
        return self.handle.nbytes + sum(h.nbytes for h in self.retired)


@dataclass
class Lease:
    """A pin on one concrete segment for one in-flight request batch.

    Holds the manifest the batch dispatched against; releasing the last
    lease of a retired segment closes it, and an entry with any live
    lease is immune to LRU eviction.
    """

    entry: ResidentInstance
    handle: _StoreHandle
    _registry: "InstanceRegistry"

    @property
    def manifest(self):
        return self.handle.manifest

    def release(self) -> None:
        self._registry._release(self)


class InstanceRegistry:
    """Byte-accounted, pin-aware LRU of daemon-resident instances.

    All methods are thread-safe: publishes run on the daemon's registry
    executor thread while pins/releases arrive from the event loop.
    """

    def __init__(self, max_bytes: int = DEFAULT_MAX_RESIDENT_BYTES) -> None:
        self.max_bytes = max_bytes
        self._entries: dict[str, ResidentInstance] = {}
        self._lock = threading.Lock()
        self._clock = 0
        self.counters: dict[str, int] = {
            "hits": 0, "misses": 0, "evictions": 0,
        }

    # -- introspection -------------------------------------------------

    @property
    def resident_bytes(self) -> int:
        with self._lock:
            return self._resident_bytes_locked()

    def _resident_bytes_locked(self) -> int:
        return sum(e.nbytes for e in self._entries.values())

    def snapshot(self) -> dict:
        """Status view: per-entry occupancy plus the counters."""
        with self._lock:
            return {
                "resident_bytes": self._resident_bytes_locked(),
                "max_bytes": self.max_bytes,
                "counters": dict(self.counters),
                "instances": [
                    {
                        "key": e.key,
                        "mesh": e.spec.mesh,
                        "target_cells": e.spec.target_cells,
                        "k": e.spec.k,
                        "block_sizes": list(e.block_sizes),
                        "bytes": e.nbytes,
                        "pins": e.pins,
                    }
                    for e in sorted(
                        self._entries.values(), key=lambda e: -e.seq
                    )
                ],
            }

    # -- lease lifecycle -----------------------------------------------

    def pin(self, entry: ResidentInstance) -> Lease:
        """Pin the entry's current segment for one in-flight batch."""
        with self._lock:
            handle = entry.handle
            handle.pins += 1
            entry.pins += 1
            self._clock += 1
            entry.seq = self._clock
            return Lease(entry, handle, self)

    def _release(self, lease: Lease) -> None:
        close_store = None
        with self._lock:
            lease.handle.pins -= 1
            lease.entry.pins -= 1
            if lease.handle.retired and lease.handle.pins == 0:
                if lease.handle in lease.entry.retired:
                    lease.entry.retired.remove(lease.handle)
                close_store = lease.handle.store
            self._gauge_locked()
        if close_store is not None:
            close_store.close()

    # -- publish / lookup ----------------------------------------------

    def get_or_publish(
        self,
        spec: InstanceSpec,
        block_sizes: tuple = (),
        algorithms: tuple = (),
    ) -> ResidentInstance:
        """Resident entry for ``spec`` covering ``block_sizes``.

        Registry hit: LRU-touch and return.  Hit missing a block
        labelling: republish the same instance arrays with the superset
        of labellings (segment swap; old segment lives until its leases
        drain).  Miss: hydrate from the disk cache or build, publish,
        then evict LRU unpinned entries down to the byte budget.
        """
        from repro.experiments.runner import instance_cache_key

        key = instance_cache_key(*spec)
        needed = tuple(sorted({s for s in block_sizes if s > 1}))
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and set(needed) <= set(entry.block_sizes):
                self.counters["hits"] += 1
                obs.inc("serve.instances.hits")
                self._clock += 1
                entry.seq = self._clock
                return entry

        if entry is not None:
            return self._extend_blocks(entry, needed)
        return self._publish_new(spec, key, needed, algorithms)

    def _publish_new(self, spec, key, block_sizes, algorithms) -> ResidentInstance:
        from repro.experiments.runner import load_or_build
        from repro.parallel.shm_store import SharedInstanceStore
        from repro.parallel.worker import warm_instance

        inst, blocks = load_or_build(*spec, block_sizes)
        warm_instance(inst, algorithms)
        store = SharedInstanceStore.publish(inst, blocks=blocks)
        entry = ResidentInstance(
            key=key, spec=spec, handle=_StoreHandle(store),
            block_sizes=block_sizes,
        )
        evicted: list = []
        with self._lock:
            raced = self._entries.get(key)
            if raced is not None:
                # Another publisher won while we built; keep theirs.
                store.close()
                self._clock += 1
                raced.seq = self._clock
                return raced
            self.counters["misses"] += 1
            obs.inc("serve.instances.misses")
            self._clock += 1
            entry.seq = self._clock
            self._entries[key] = entry
            evicted = self._evict_to_budget_locked(keep=entry)
            self._gauge_locked()
        for store_ in evicted:
            store_.close()
        return entry

    def _extend_blocks(self, entry, needed) -> ResidentInstance:
        """Republish ``entry`` with the union of block labellings.

        Instance arrays and held labellings are copied segment-to-segment
        (only new sizes are loaded or partitioned); the old segment is
        retired and closed once its leases drain.
        """
        from repro.experiments.runner import load_or_build
        from repro.parallel.shm_store import SharedInstanceStore, _views

        union = tuple(sorted(set(entry.block_sizes) | set(needed)))
        _, blocks = load_or_build(
            *entry.spec[:3], None, set(needed) - set(entry.block_sizes)
        )
        old = entry.handle
        manifest = old.manifest
        arrays = _views(manifest.specs, old.store._shm.buf, writeable=False)
        for size in manifest.block_sizes:
            blocks[size] = arrays.pop(f"blocks/{size}")
        store = SharedInstanceStore.publish_arrays(
            manifest.meta, arrays, blocks=blocks
        )
        close_old = None
        with self._lock:
            self.counters["hits"] += 1
            obs.inc("serve.instances.hits")
            entry.handle = _StoreHandle(store)
            entry.block_sizes = union
            self._clock += 1
            entry.seq = self._clock
            if old.pins == 0:
                close_old = old.store
            else:
                old.retired = True
                entry.retired.append(old)
            self._gauge_locked()
        if close_old is not None:
            close_old.close()
        return entry

    def _evict_to_budget_locked(self, keep=None) -> list:
        """Drop LRU zero-pin entries until under budget; returns stores.

        The entry being published (``keep``) is exempt — evicting what a
        request is about to use would thrash.  Entries with live leases
        are never candidates, so a saturated registry can legitimately
        sit over budget; admission sheds further publishes instead.
        """
        evicted = []
        while self._resident_bytes_locked() > self.max_bytes:
            candidates = [
                e for e in self._entries.values()
                if e.pins == 0 and not e.retired and e is not keep
            ]
            if not candidates:
                break
            victim = min(candidates, key=lambda e: e.seq)
            del self._entries[victim.key]
            evicted.append(victim.handle.store)
            self.counters["evictions"] += 1
            obs.inc("serve.instances.evictions")
        return evicted

    def _gauge_locked(self) -> None:
        obs.gauge(
            "serve.instances.resident_bytes", self._resident_bytes_locked()
        )

    def would_exceed_budget(self) -> bool:
        """True when a new publish cannot fit even after eviction.

        The admission plane's shedding predicate: every resident byte is
        pinned by in-flight work and the budget is already spent, so a
        publish now would only grow past the budget.
        """
        with self._lock:
            pinned = sum(
                e.nbytes for e in self._entries.values() if e.pins > 0
            )
            return pinned >= self.max_bytes

    def close_all(self) -> None:
        """Unlink every resident segment (drain path; zero orphans)."""
        with self._lock:
            entries = list(self._entries.values())
            self._entries.clear()
            self._gauge_locked()
        for entry in entries:
            if entry.pins:
                raise ServeError(
                    "internal",
                    f"close_all with {entry.pins} live leases on "
                    f"{entry.key[:12]} — drain must await in-flight "
                    "requests first",
                )
            entry.handle.store.close()
            for handle in entry.retired:
                handle.store.close()

