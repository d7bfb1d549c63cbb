"""Per-run bookkeeping: op outcomes, latencies, quality, digest, memory."""

from __future__ import annotations

import math
import os
import statistics
import struct
import time
import zlib
from dataclasses import dataclass, field


@dataclass
class Ledger:
    """Everything one timed phase records about its ops.

    An op that raises, returns a mismatching result or is refused is
    *failed*: it counts in ``attempted`` and ``failed`` and contributes
    no latency or quality sample.  Checks made after the phase (leaked
    shared-memory segments, a daemon that did not drain cleanly) are
    booked with :meth:`fail` too, so no failure can pass silently.

    Every completed op carries a key naming its input; a phase repeats
    each input several times.  The timing metrics keep, per key, the
    fastest quarter (``KEEP_SHARE``) of its repeats.  The same input
    takes the same work on every repeat, so the slower repeats differ
    only by how busy the host was, and dropping them keeps a slowdown of
    the shared machine that covers less than three quarters of a run out
    of the metrics.
    """

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    #: ``(key, latency_s)`` of every completed op.
    latencies: list = field(default_factory=list)
    #: ``(key, seconds, cells)``: the time some unit of work took and the
    #: cells it completed.  A closed loop books each op's latency; the
    #: open loop books the whole load, from the first due time to the
    #: last reply.
    work: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    c1_fracs: list = field(default_factory=list)
    digest_makespans: list = field(default_factory=list)

    def ok(self, key, latency_s: float, summaries, cells: int,
           record_digest: bool, book_work: bool = True) -> None:
        self.attempted += 1
        self.latencies.append((key, latency_s))
        if book_work:
            self.work.append((key, latency_s, cells))
        for s in summaries:
            self.ratios.append(float(s.ratio))
            self.c1_fracs.append(float(s.c1_fraction))
            if record_digest:
                self.digest_makespans.append(float(s.makespan))

    def kept_latencies(self) -> list:
        """Latencies of the fastest quarter of each key's repeats."""
        return [lat for (lat,) in keep_fastest(
            (key, (lat,)) for key, lat in self.latencies)]

    def rate(self) -> float:
        """Cells per second over the fastest quarter (seconds per cell)
        of each key's work."""
        kept = keep_fastest(
            (key, (secs / max(cells, 1), secs, cells))
            for key, secs, cells in self.work)
        busy = sum(secs for _, secs, _ in kept)
        return sum(cells for _, _, cells in kept) / busy if busy else 0.0

    def fail(self, what: str, reason) -> None:
        self.attempted += 1
        self.failed += 1
        if isinstance(reason, BaseException):
            reason = f"{type(reason).__name__}: {reason}"
        self.failures.append(f"{what}: {reason}")

    def digest(self) -> str:
        """crc32 of the digest makespans, so a changed schedule shows."""
        data = struct.pack(f"<{len(self.digest_makespans)}d",
                           *self.digest_makespans)
        return f"{zlib.crc32(data):08x}"


#: Share of each key's repeats the timing metrics keep.  The host these
#: runs were tuned on switched between a fast and a ~1.7x slower speed
#: for seconds at a time, and a run could spend more than half of its
#: time slow: keeping the fastest half then read the slow speed in some
#: runs and the fast one in others (families p50_ms spread 0.2-0.3).
KEEP_SHARE = 0.25


def keep_fastest(keyed, share: float = KEEP_SHARE) -> list:
    """Group ``(key, value)`` pairs by key; keep the smallest ``share``
    (rounded up, at least one) of each group, compared by the value's
    first item."""
    groups: dict = {}
    for key, value in keyed:
        groups.setdefault(key, []).append(value)
    kept = []
    for values in groups.values():
        values.sort(key=lambda v: v[0])
        kept += values[: max(1, math.ceil(len(values) * share))]
    return kept


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]); needs a sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def vmhwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a process in MiB; 0.0 if gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` from its current RSS (Linux)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def child_pids(pid: int) -> list[int]:
    """Direct children of ``pid``, found by scanning ``/proc``."""
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[-1].split()
        if len(fields) > 1 and int(fields[1]) == pid:
            kids.append(int(entry))
    return kids


def tree_cpu_s(pid: int) -> float:
    """CPU seconds (all threads, nanosecond clock) of ``pid`` and its
    direct children, read through each process's CPU-time clock; a
    process that has exited counts 0."""
    total = 0.0
    for p in [pid] + child_pids(pid):
        # Linux encodes another process's CPU clock as (~pid << 3) | 2.
        try:
            total += time.clock_gettime((~p << 3) | 2)
        except OSError:
            continue
    return total


def tree_peak_rss_mb(pid: int) -> float:
    """Highest ``VmHWM`` of ``pid`` and its direct children."""
    return max([vmhwm_mb(pid)] + [vmhwm_mb(c) for c in child_pids(pid)])
