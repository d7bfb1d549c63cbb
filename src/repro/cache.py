"""Content-addressed on-disk cache of built sweep instances and block labels.

Instance construction (mesh → per-direction edge induction → cycle
check → CSR → levels) is deterministic in ``(mesh family, params, seed,
direction set, tol)`` and partitioning in ``(mesh, block size, seed)``,
so both can be cached across *processes* — every bench, grid, campaign,
figure and serve rerun is a warm start.  This module persists the
:meth:`~repro.core.instance.SweepInstance.export_arrays` wire format
(the same flat arrays the shared-memory plane publishes) and one-array
label entries under :data:`DIR_ENV`, keyed by a blake2b content hash.

Design contract
---------------
* **Disabled by default.** The cache is active only when the
  :data:`DIR_ENV` environment variable names a directory; every entry
  point degrades to a no-op miss otherwise, so tests and one-shot runs
  stay hermetic.
* **Atomic writes.** Entries are written to a same-directory temp file
  and ``os.replace``-d into place, so a ``SIGKILL`` mid-write can only
  leave a stray ``*.tmp`` (reported by :func:`list_corrupt_entries`,
  never loaded) — a visible entry is always complete.
* **Fail-loud verification.** Every load re-hashes the payload against
  the stored blake2b digest and checks magic/version/key; any mismatch
  raises :class:`~repro.util.errors.CacheError` instead of silently
  rebuilding, so corruption surfaces where it happened.
* **Size-bounded LRU.** After each store, oldest-``mtime`` entries are
  evicted until the directory fits :data:`MAX_MB_ENV` (default
  :data:`DEFAULT_MAX_MB`); loads touch ``mtime`` so hot entries stay.

Session counters (:data:`COUNTERS` — hit/miss/store/evict, blocks.hit/
blocks.miss) are plain per-process ints the runner and tests read
without enabling tracing; the same events are mirrored onto the
:mod:`repro.obs` metrics plane (``cache.blocks.hit`` etc.) when tracing
is on, so a run's own ``--trace`` is where its hits are read from.

Crash injection (test hook)
---------------------------
``REPRO_CACHE_FAULT=sigkill:before_rename`` arms an env-gated fault that
SIGKILLs the process after the temp file is fully written but before the
atomic rename — the window an unsafe writer would corrupt.  The cache
battery (``tests/test_cache.py``) uses it to prove the atomicity
contract above; inert unless armed, mirroring
:data:`repro.campaign.executor.FAULT_ENV`.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro import obs
from repro.util.errors import CacheError

if TYPE_CHECKING:  # annotation-only; keeps import cost near zero
    from repro.core.instance import SweepInstance

__all__ = [
    "CACHE_VERSION",
    "DIR_ENV",
    "MAX_MB_ENV",
    "FAULT_ENV",
    "DEFAULT_MAX_MB",
    "ENTRY_SUFFIX",
    "COUNTERS",
    "cache_dir",
    "override_dir",
    "instance_key",
    "blocks_key",
    "entry_path",
    "store_arrays",
    "load_arrays",
    "store_instance",
    "load_instance",
    "store_blocks",
    "load_blocks",
    "list_entries",
    "list_corrupt_entries",
    "cache_stats",
    "clear_cache",
    "reset_counters",
]

#: Bump on any wire-format or key-derivation change; part of both the
#: content key and the entry header, so stale entries miss (key) and
#: tampered headers fail loudly (header check).
CACHE_VERSION = 3

#: Environment variable naming the cache directory (unset = disabled).
DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable bounding the cache size in MiB.
MAX_MB_ENV = "REPRO_CACHE_MAX_MB"

#: Env var arming the crash-injection hook (``sigkill:before_rename``).
FAULT_ENV = "REPRO_CACHE_FAULT"

#: Default size bound (MiB) when :data:`MAX_MB_ENV` is unset.
DEFAULT_MAX_MB = 512.0

#: Filename suffix of every committed cache entry.
ENTRY_SUFFIX = ".rpc"

_MAGIC = b"REPROCACHE\n"
_ALIGN = 64

#: Per-process event counters (independent of the obs tracing switch).
COUNTERS: dict[str, int] = {"hit": 0, "miss": 0, "store": 0, "evict": 0,
                            "blocks.hit": 0, "blocks.miss": 0}


def reset_counters() -> None:
    """Zero the per-process :data:`COUNTERS` (test/bench isolation)."""
    for key in COUNTERS:
        COUNTERS[key] = 0


def cache_dir() -> Path | None:
    """The active cache directory, or ``None`` when the cache is off.

    Reads :data:`DIR_ENV` on every call (so tests and the CLI can retarget
    it) and creates the directory on first use.
    """
    value = os.environ.get(DIR_ENV)
    if not value:
        return None
    root = Path(value)
    root.mkdir(parents=True, exist_ok=True)
    return root


@contextmanager
def override_dir(path: str | os.PathLike | None) -> Iterator[Path | None]:
    """Temporarily point :data:`DIR_ENV` at ``path`` (``None`` disables).

    Yields the resulting :func:`cache_dir` and restores the previous
    environment on exit — the bench harness's cold/warm construction row
    and the test battery both run against throwaway directories.
    """
    previous = os.environ.get(DIR_ENV)
    if path is None:
        os.environ.pop(DIR_ENV, None)
    else:
        os.environ[DIR_ENV] = os.fspath(path)
    try:
        yield cache_dir()
    finally:
        if previous is None:
            os.environ.pop(DIR_ENV, None)
        else:
            os.environ[DIR_ENV] = previous


def _content_key(**fields) -> str:
    blob = json.dumps({"cache_version": CACHE_VERSION, **fields}, sort_keys=True)
    return hashlib.blake2b(blob.encode(), digest_size=16).hexdigest()


def instance_key(
    mesh: str,
    target_cells: int,
    mesh_seed: int,
    k: int,
    tol: float,
    directions: np.ndarray,
) -> str:
    """Blake2b content key of one instance-construction configuration.

    Covers everything construction output depends on: the mesh family
    and its parameters/seed, the direction count *and* the direction
    vectors themselves (hashed bit-exact), the edge-induction tolerance,
    and :data:`CACHE_VERSION`.  Deterministic across processes and
    platforms with identical float semantics.
    """
    dirs = np.ascontiguousarray(np.asarray(directions, dtype=np.float64))
    return _content_key(
        mesh=str(mesh), target_cells=int(target_cells),
        mesh_seed=int(mesh_seed), k=int(k), tol=float(tol),
        directions=hashlib.blake2b(dirs.tobytes(), digest_size=16).hexdigest(),
        directions_shape=list(dirs.shape),
    )


def blocks_key(mesh: str, target_cells: int, mesh_seed: int, block_size: int) -> str:
    """Content key of one mesh's cell→block labelling, partitioned with the
    mesh seed: the mesh fields of :func:`instance_key` plus the block size
    and partition seed, never ``k``."""
    return _content_key(
        mesh=str(mesh), target_cells=int(target_cells),
        mesh_seed=int(mesh_seed), block_size=int(block_size),
        partition_seed=int(mesh_seed),
    )


def entry_path(key: str) -> Path | None:
    """Filesystem path of ``key``'s entry (``None`` when disabled)."""
    root = cache_dir()
    if root is None:
        return None
    return root / f"{key}{ENTRY_SUFFIX}"


def _maybe_fault(stage: str) -> None:
    """Env-gated crash injection (see module docstring)."""
    spec = os.environ.get(FAULT_ENV)
    if not spec:
        return
    kind, _, when = spec.partition(":")
    if kind != "sigkill" or not when:
        raise CacheError(
            f"malformed {FAULT_ENV}={spec!r} (expected 'sigkill:<stage>')"
        )
    if when == stage:
        os.kill(os.getpid(), signal.SIGKILL)


def store_arrays(
    key: str, meta: dict, arrays: dict[str, np.ndarray]
) -> Path | None:
    """Persist one exported-instance payload under ``key`` (atomic).

    No-op (returns ``None``) when the cache is disabled.  The entry file
    is ``magic | header_len | header JSON | 64-byte-aligned payload``;
    the header records every array's dtype/shape/offset plus a blake2b
    digest of the payload that :func:`load_arrays` re-verifies.
    """
    root = cache_dir()
    if root is None:
        return None
    specs = []
    offset = 0
    chunks: list[bytes] = []
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        specs.append(
            {
                "key": name,
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "offset": offset,
            }
        )
        data = arr.tobytes()
        padded = (len(data) + _ALIGN - 1) // _ALIGN * _ALIGN
        chunks.append(data)
        chunks.append(b"\x00" * (padded - len(data)))
        offset += padded
    payload = b"".join(chunks)
    header = json.dumps(
        {
            "cache_version": CACHE_VERSION,
            "key": key,
            "meta": meta,
            "specs": specs,
            "payload_bytes": len(payload),
            "digest": hashlib.blake2b(payload, digest_size=32).hexdigest(),
        },
        sort_keys=True,
    ).encode()
    final = root / f"{key}{ENTRY_SUFFIX}"
    tmp = root / f"{key}.{os.getpid()}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    _maybe_fault("before_rename")
    os.replace(tmp, final)
    COUNTERS["store"] += 1
    obs.inc("cache.store")
    _evict(root)
    return final


def _parse_entry(blob: bytes, where: str) -> tuple[dict, memoryview]:
    """Split one entry file into (header, payload); fail loudly."""
    if not blob.startswith(_MAGIC):
        raise CacheError(f"{where}: bad magic (not a repro cache entry)")
    head_at = len(_MAGIC)
    if len(blob) < head_at + 8:
        raise CacheError(f"{where}: truncated header length")
    (header_len,) = struct.unpack_from("<Q", blob, head_at)
    payload_at = head_at + 8 + header_len
    if len(blob) < payload_at:
        raise CacheError(f"{where}: truncated header")
    try:
        header = json.loads(blob[head_at + 8 : payload_at])
    except ValueError as exc:
        raise CacheError(f"{where}: unparseable header ({exc})") from exc
    if header.get("cache_version") != CACHE_VERSION:
        raise CacheError(
            f"{where}: cache_version {header.get('cache_version')!r} != "
            f"{CACHE_VERSION}"
        )
    payload = memoryview(blob)[payload_at:]
    if len(payload) != header.get("payload_bytes"):
        raise CacheError(
            f"{where}: payload is {len(payload)} bytes, header says "
            f"{header.get('payload_bytes')}"
        )
    digest = hashlib.blake2b(payload, digest_size=32).hexdigest()
    if digest != header.get("digest"):
        raise CacheError(f"{where}: payload digest mismatch")
    return header, payload


def load_arrays(key: str) -> tuple[dict, dict[str, np.ndarray]] | None:
    """Load ``key``'s entry; ``None`` on miss (or when disabled).

    Returns ``(meta, arrays)`` in the
    :meth:`~repro.core.instance.SweepInstance.export_arrays` wire format.
    Arrays are read-only zero-copy views over the entry's payload bytes.
    Raises :class:`~repro.util.errors.CacheError` on any verification
    failure — a corrupt entry is never reported as a miss.
    """
    path = entry_path(key)
    if path is None:
        return None
    try:
        blob = path.read_bytes()
    except FileNotFoundError:
        COUNTERS["miss"] += 1
        obs.inc("cache.miss")
        return None
    header, payload = _parse_entry(blob, path.name)
    if header.get("key") != key:
        raise CacheError(
            f"{path.name}: stored key {header.get('key')!r} != {key!r}"
        )
    arrays = {}
    for spec in header["specs"]:
        view = np.ndarray(
            tuple(spec["shape"]),
            dtype=np.dtype(spec["dtype"]),
            buffer=payload,
            offset=spec["offset"],
        )
        view.flags.writeable = False  # entry bytes are shared, never mutated
        arrays[spec["key"]] = view
    try:
        os.utime(path)  # LRU recency touch
    except OSError:
        pass
    COUNTERS["hit"] += 1
    obs.inc("cache.hit")
    return header["meta"], arrays


def store_instance(key: str, inst: "SweepInstance") -> Path | None:
    """Persist an instance (with its materialised caches) under ``key``."""
    meta, arrays = inst.export_arrays()
    return store_arrays(key, meta, arrays)


def load_instance(key: str) -> "SweepInstance | None":
    """Rehydrate the instance stored under ``key`` (``None`` on miss).

    Zero-copy over the entry payload, no validation or cache
    recomputation — every memo cache materialised at store time (levels,
    CSR, the union DAG) comes back adopted.  For publishing straight to
    shared memory without building Python DAG objects at all, pair
    :func:`load_arrays` with
    :meth:`repro.parallel.SharedInstanceStore.publish_arrays` instead.
    """
    hit = load_arrays(key)
    if hit is None:
        return None
    from repro.core.instance import SweepInstance

    meta, arrays = hit
    return SweepInstance.from_arrays(meta, arrays, adopted=False)


def store_blocks(key: str, mesh: str, labels: np.ndarray, block_size: int):
    """Persist one cell→block labelling under ``key``."""
    meta = {"name": mesh, "n_cells": len(labels), "block_size": block_size}
    return store_arrays(key, meta, {"labels": labels})


def load_blocks(key: str) -> np.ndarray | None:
    """The labelling under ``key``, or ``None``; counted as ``blocks.*``."""
    hit = load_arrays(key)
    outcome = "miss" if hit is None else "hit"
    COUNTERS[f"blocks.{outcome}"] += 1
    obs.inc(f"cache.blocks.{outcome}")
    return None if hit is None else hit[1]["labels"]


def _entry_files(root: Path) -> list[Path]:
    return sorted(root.glob(f"*{ENTRY_SUFFIX}"))


def _max_bytes() -> int:
    return int(float(os.environ.get(MAX_MB_ENV, DEFAULT_MAX_MB)) * 2**20)


def _evict(root: Path) -> None:
    """Delete oldest entries until the directory fits the size bound.

    The most recently touched entry is never evicted, so a single entry
    larger than the bound does not delete itself.
    """
    stats = []
    for path in _entry_files(root):
        try:
            st = path.stat()
        except FileNotFoundError:
            continue
        stats.append((st.st_mtime_ns, st.st_size, path))
    total = sum(size for _, size, _ in stats)
    limit = _max_bytes()
    for _, size, path in sorted(stats)[:-1]:
        if total <= limit:
            break
        try:
            path.unlink()
        except FileNotFoundError:
            continue
        total -= size
        COUNTERS["evict"] += 1
        obs.inc("cache.evict")


def list_entries() -> list[dict]:
    """Summaries of every committed entry (empty when disabled).

    Each dict carries ``key``, ``bytes``, ``mtime`` and — when the header
    parses — the ``name``/``n_cells`` and ``k`` or ``block_size``.  Corrupt
    entries appear with an ``error`` field instead of raising, so ``repro
    cache ls`` can display a damaged directory.
    """
    root = cache_dir()
    if root is None:
        return []
    out = []
    for path in _entry_files(root):
        try:
            st = path.stat()
        except FileNotFoundError:
            continue
        entry: dict = {
            "key": path.name[: -len(ENTRY_SUFFIX)],
            "bytes": int(st.st_size),
            "mtime": float(st.st_mtime),
        }
        try:
            header, _ = _parse_entry(path.read_bytes(), path.name)
            meta = header.get("meta", {})
            listed = ("name", "n_cells", "k", "block_size")
            entry.update((f, meta[f]) for f in listed if f in meta)
        except (CacheError, OSError) as exc:
            entry["error"] = str(exc)
        out.append(entry)
    return out


def list_corrupt_entries() -> list[str]:
    """Filenames of damaged or leaked files in the cache directory.

    The cache's leak/corruption probe, mirroring
    :func:`repro.parallel.list_orphan_segments`: committed entries whose
    magic/header/digest fail verification, plus stray ``*.tmp`` files
    left by a writer that died before its atomic rename.  Empty when the
    cache is healthy (or disabled) — tests and CI assert exactly that.
    """
    root = cache_dir()
    if root is None:
        return []
    bad = []
    for path in _entry_files(root):
        try:
            _parse_entry(path.read_bytes(), path.name)
        except (CacheError, OSError):
            bad.append(path.name)
    bad.extend(p.name for p in root.glob("*.tmp"))
    return sorted(bad)


def cache_stats() -> dict:
    """One status dict: directory, entry census, bound, corrupt entries."""
    root = cache_dir()
    entries = list_entries()
    return {
        "dir": str(root) if root is not None else None,
        "enabled": root is not None,
        "entries": len(entries),
        "total_bytes": int(sum(e["bytes"] for e in entries)),
        "max_bytes": _max_bytes(),
        "corrupt": list_corrupt_entries(),
    }


def clear_cache() -> int:
    """Delete every entry (and stray temp file); returns the count."""
    root = cache_dir()
    if root is None:
        return 0
    removed = 0
    for path in list(_entry_files(root)) + list(root.glob("*.tmp")):
        try:
            path.unlink()
        except FileNotFoundError:
            continue
        removed += 1
    return removed
