"""Zero-copy shared-memory publication of sweep instances.

The grid runner's old parallel path had every worker process rebuild the
mesh, all ``k`` sweep DAGs, cycle breaking, and the block partitions from
scratch — ``W`` workers paid the instance-build cost ``W`` times and held
``W`` full copies in RAM.  This module replaces the rebuild with a
publish/attach protocol:

* the parent flattens one :class:`~repro.core.instance.SweepInstance`
  (plus any materialised memo caches and the per-block-size partition
  labellings) into a **single** ``multiprocessing.shared_memory`` segment
  via :meth:`SharedInstanceStore.publish`;
* workers :func:`attach` to the segment by name and get back a fully
  functional instance whose arrays are **read-only zero-copy views** of
  the shared pages — no deserialisation, no per-worker copy, RSS flat in
  the worker count;
* the parent guarantees cleanup: context-manager exit, an ``atexit``
  backstop, and unlink-on-crash (the dispatcher unlinks in a ``finally``
  even when a worker raised mid-grid).

The wire format is ``SweepInstance.export_arrays()``: a JSON-able meta
dict plus named numpy arrays, laid out back to back (64-byte aligned) in
the segment and described by an :class:`ArraySpec` table in the picklable
:class:`StoreManifest` that travels to workers with each task.
"""

from __future__ import annotations

import _posixshmem
import atexit
import mmap
import os
import secrets
from dataclasses import dataclass, field
from multiprocessing import shared_memory

import numpy as np

from repro.core.instance import SweepInstance
from repro.parallel import sanitize
from repro.util.errors import StoreError

__all__ = [
    "SHM_PREFIX",
    "ArraySpec",
    "StoreManifest",
    "SharedInstanceStore",
    "attach",
    "detach_all",
    "verify_attached",
    "list_orphan_segments",
    "segment_creator",
]

#: Every segment this module creates is named ``reproshm_<pid>_<hex>``
#: (``pid`` = the creating process) so leak checks (tests, CI) can scan
#: ``/dev/shm`` for survivors unambiguously and tell whose they are.
SHM_PREFIX = "reproshm_"

#: Segment offsets are rounded up to this many bytes so every attached
#: view is at least cache-line (and numpy default) aligned.
_ALIGN = 64


@dataclass(frozen=True)
class ArraySpec:
    """Location of one named array inside the shared segment."""

    key: str
    dtype: str
    shape: tuple
    offset: int


@dataclass(frozen=True)
class StoreManifest:
    """Everything a worker needs to attach: segment name + array table.

    Picklable and small (no array data), so shipping it with every task
    is free.  ``meta`` is the instance's JSON-able metadata from
    :meth:`repro.core.instance.SweepInstance.export_arrays`;
    ``block_sizes`` lists the partition labellings published alongside
    the instance (array keys ``blocks/<size>``).
    """

    segment: str
    meta: dict
    specs: tuple = field(default_factory=tuple)
    block_sizes: tuple = field(default_factory=tuple)
    #: Content digest of the published segment, stamped only when the
    #: ``REPRO_SANITIZE=1`` sanitizer is active (else ``None``).  Workers
    #: and the owning store re-verify it to catch stray writes.
    digest: str | None = None


def _layout(arrays: dict) -> tuple[tuple, int]:
    """Compute (specs, total_bytes) for a name→array dict."""
    specs = []
    offset = 0
    for key in sorted(arrays):
        arr = np.ascontiguousarray(arrays[key])
        specs.append(ArraySpec(key, arr.dtype.str, tuple(arr.shape), offset))
        offset += (arr.nbytes + _ALIGN - 1) // _ALIGN * _ALIGN
    return tuple(specs), max(offset, 1)


def _views(specs: tuple, buf, writeable: bool) -> dict:
    """Build (optionally read-only) ndarray views over a segment buffer."""
    out = {}
    for spec in specs:
        view = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype),
                          buffer=buf, offset=spec.offset)
        view.flags.writeable = writeable
        out[spec.key] = view
    return out


class SharedInstanceStore:
    """One published instance (plus partitions) in shared memory.

    Use as a context manager in the parent::

        with SharedInstanceStore.publish(inst, blocks={64: labels}) as store:
            pool.submit(work, store.manifest, ...)

    Exit closes *and unlinks* the segment; an ``atexit`` hook covers
    abnormal parent exits.  Workers never unlink — they :func:`attach`
    and the views die with the process.
    """

    def __init__(self, shm: shared_memory.SharedMemory, manifest: StoreManifest):
        self._shm = shm
        self._closed = False
        self.manifest = manifest
        atexit.register(self._cleanup)

    @classmethod
    def publish(
        cls,
        inst: SweepInstance,
        blocks: dict | None = None,
    ) -> "SharedInstanceStore":
        """Serialise ``inst`` (and cell→block labellings) into one segment.

        ``blocks`` maps block size → ``(n_cells,)`` labelling array.  Memo
        caches are included exactly as materialised on ``inst`` — warm
        them first (see :func:`repro.parallel.warm_instance`) so workers
        inherit the expensive precomputations instead of redoing them.
        """
        meta, arrays = inst.export_arrays()
        return cls.publish_arrays(meta, arrays, blocks=blocks)

    @classmethod
    def publish_arrays(
        cls,
        meta: dict,
        arrays: dict,
        blocks: dict | None = None,
    ) -> "SharedInstanceStore":
        """Publish an already-exported instance payload into one segment.

        ``(meta, arrays)`` is the
        :meth:`~repro.core.instance.SweepInstance.export_arrays` wire
        format — exactly what :func:`repro.cache.load_arrays` returns on
        a build-cache hit, so a cached instance can be published to
        workers without ever rehydrating per-direction ``Dag`` objects
        in the parent.  :meth:`publish` is a thin wrapper that exports
        a live instance first.
        """
        arrays = dict(arrays)
        block_sizes = tuple(sorted(blocks)) if blocks else ()
        if blocks:
            for size in block_sizes:
                arrays[f"blocks/{size}"] = np.asarray(
                    blocks[size], dtype=np.int64
                )
        specs, total = _layout(arrays)
        name = f"{SHM_PREFIX}{os.getpid()}_{secrets.token_hex(8)}"
        views: dict | None = None
        shm = shared_memory.SharedMemory(name=name, create=True, size=total)
        try:
            views = _views(specs, shm.buf, writeable=True)
            for spec in specs:
                np.copyto(
                    views[spec.key],
                    np.ascontiguousarray(arrays[spec.key]),
                    casting="no",
                )
            digest = (
                sanitize.segment_digest(shm.buf)
                if sanitize.sanitize_enabled() else None
            )
            manifest = StoreManifest(
                segment=shm.name, meta=meta, specs=specs,
                block_sizes=block_sizes, digest=digest,
            )
        except BaseException:
            # A dtype-cast failure (or KeyboardInterrupt) before the
            # handle reaches its owner would otherwise leak a named
            # segment until reboot.
            views = None  # drop buffer views so close() can release the map
            shm.close()
            shm.unlink()
            raise
        return cls(shm, manifest)

    # -- lifecycle -----------------------------------------------------

    def _cleanup(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
            self._shm.unlink()
        except FileNotFoundError:  # already unlinked elsewhere
            pass

    def close(self) -> None:
        """Close and unlink the segment (idempotent).

        Under ``REPRO_SANITIZE=1`` the segment's contents are verified
        against the published digest first, so a stray write anywhere in
        the grid run fails the owning store's shutdown loudly.
        """
        if not self._closed:
            sanitize.check_digest(
                self._shm.buf, self.manifest.digest, "store close"
            )
        self._cleanup()
        atexit.unregister(self._cleanup)

    def __enter__(self) -> "SharedInstanceStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"SharedInstanceStore({self.manifest.segment!r}, {state})"


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------

#: Per-process attachment cache: segment name -> (mapping, instance, blocks).
#: A worker serves one grid at a time, so only the most recent attachment
#: is kept; the previous segment's mapping is closed when evicted.
_ATTACHED: dict = {}


def attach(
    manifest: StoreManifest,
) -> tuple[SweepInstance, dict[int, np.ndarray]]:
    """Attach to a published store; returns ``(instance, blocks)``.

    Zero-copy: the instance's arrays are read-only views of a read-only
    mapping of the shared segment.  Attachments are memoised per process
    and per segment, so a resident pool worker pays the (microsecond)
    mapping cost once per grid no matter how many chunks it executes.
    """
    cached = _ATTACHED.get(manifest.segment)
    if cached is not None:
        return cached[1], cached[2]
    # Not SharedMemory(name=...): that registers (and in a worker, starts)
    # a resource tracker, and attachers never own the segment.
    try:
        fd = _posixshmem.shm_open("/" + manifest.segment, os.O_RDONLY)
    except FileNotFoundError as exc:
        raise StoreError(
            f"shared-memory segment {manifest.segment!r} no longer exists; "
            "the publishing process likely unlinked it (daemon restarted, "
            "instance evicted, or the owning store was closed) — "
            "re-publish the instance and retry with a fresh manifest"
        ) from exc
    try:
        buf = mmap.mmap(fd, os.fstat(fd).st_size, prot=mmap.PROT_READ)
    finally:
        os.close(fd)
    views = _views(manifest.specs, buf, writeable=False)
    if manifest.digest is not None:
        sanitize.check_digest(buf, manifest.digest, "attach")
        sanitize.poison_views(views, "attach")
    blocks = {
        size: views.pop(f"blocks/{size}") for size in manifest.block_sizes
    }
    inst = SweepInstance.from_arrays(manifest.meta, views)
    detach_all()  # evict any previous grid's segment
    _ATTACHED[manifest.segment] = (buf, inst, blocks)
    return inst, blocks


def verify_attached(manifest: StoreManifest) -> None:
    """Re-verify a memoised attachment against its published digest.

    No-op unless the manifest carries a sanitizer digest and this process
    is currently attached to the segment.  Workers call this after every
    chunk so a stray write is pinned to the chunk that made it.
    """
    entry = _ATTACHED.get(manifest.segment)
    if entry is not None and manifest.digest is not None:
        sanitize.check_digest(entry[0], manifest.digest, "worker chunk")


def detach_all() -> None:
    """Close every memoised attachment (worker exit / store eviction)."""
    while _ATTACHED:
        _, entry = _ATTACHED.popitem()
        try:
            entry[0].close()
        except BufferError:  # live views still reference the buffer
            pass


def segment_creator(name: str) -> int | None:
    """Pid of the process that created store segment ``name``.

    ``None`` when the name carries no pid (a hand-made probe, or a
    segment from a version that did not encode one).
    """
    head = name[len(SHM_PREFIX):].partition("_")[0]
    if not (head.isascii() and head.isdigit()) or int(head) <= 0:
        return None
    return int(head)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)  # signal 0: existence check only
    except ProcessLookupError:
        return False
    except PermissionError:  # alive, owned by another user
        return True
    return True


def list_orphan_segments() -> list[str]:
    """Names of store segments in ``/dev/shm`` that this process answers for.

    Cleanup verification for tests and the CI leak check: after a grid —
    even one aborted by a worker crash — this must be empty.  A segment
    counts when this process created it, when its creator is no longer
    running (a crashed driver, or a daemon that has drained and exited),
    or when its name carries no creator pid.  Segments of other live
    processes — a second test session, a running daemon — are theirs to
    clean up and are not listed.  Returns ``[]`` on platforms without a
    scannable ``/dev/shm``.
    """
    try:
        names = [
            name for name in os.listdir("/dev/shm")
            if name.startswith(SHM_PREFIX)
        ]
    except (FileNotFoundError, NotADirectoryError, PermissionError):
        return []
    me = os.getpid()
    return sorted(
        name for name in names
        if (pid := segment_creator(name)) is None
        or pid == me
        or not _pid_alive(pid)
    )
