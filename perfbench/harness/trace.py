"""In-memory span recorder for the benchmark's traced runs.

The benchmark records its own spans around every call it makes into a
``repro`` layer; nothing inside ``src/repro`` is instrumented for it.
A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span (``-1`` for a root) and ``op`` the id of the timed
operation it belongs to (``None`` during set-up).  Spans stay in memory
until the run ends, when :meth:`Tracer.write_chrome` exports them in the
``repro.obs`` Chrome-trace format and validates the file.

A disabled tracer hands out one shared no-op context manager, so the
untraced run executes the same code with near-zero overhead.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field


@dataclass
class SpanRecord:
    name: str
    start: float
    end: float
    parent: int
    op: int | None
    phase: str
    args: dict | None = None

    @property
    def dur(self) -> float:
        return self.end - self.start


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class _OpenSpan:
    __slots__ = ("tracer", "name", "args", "index", "is_op")

    def __init__(self, tracer: "Tracer", name: str, args: dict | None, is_op: bool):
        self.tracer = tracer
        self.name = name
        self.args = args
        self.is_op = is_op

    def __enter__(self):
        t = self.tracer
        if self.is_op:
            t.op_id = t.next_op
            t.next_op += 1
        parent = t.stack[-1] if t.stack else -1
        self.index = len(t.spans)
        t.spans.append(
            SpanRecord(self.name, time.perf_counter(), 0.0, parent, t.op_id,
                       t.phase, self.args)
        )
        t.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index].end = time.perf_counter()
        t.stack.pop()
        if self.is_op:
            t.op_id = None
        return False


@dataclass
class Tracer:
    """Span and counter recorder; a no-op while ``enabled`` is false."""

    enabled: bool = False
    phase: str = "setup"
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    stack: list = field(default_factory=list)
    op_id: int | None = None
    next_op: int = 0

    def span(self, name: str, **args):
        """Context manager timing one call into a layer."""
        if not self.enabled:
            return _NULL
        return _OpenSpan(self, name, args or None, is_op=False)

    def op(self, kind: str):
        """Context manager around one timed operation (a root span)."""
        if not self.enabled:
            return _NULL
        return _OpenSpan(self, "op", {"kind": kind}, is_op=True)

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + n

    # -- analysis ------------------------------------------------------

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.spans]
        for i, s in enumerate(self.spans):
            if s.parent >= 0:
                kids[s.parent].append(i)
        return kids

    def covered(self, index: int, kids: list[list[int]]) -> float:
        """Seconds of span ``index`` covered by the union of its children."""
        parent = self.spans[index]
        intervals = sorted(
            (max(self.spans[c].start, parent.start),
             min(self.spans[c].end, parent.end))
            for c in kids[index]
        )
        total, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    total += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            total += cur_hi - cur_lo
        return total

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its children cover."""
        kids = self.children()
        return [s.dur - self.covered(i, kids) for i, s in enumerate(self.spans)]

    def write_chrome(self, path: str, metrics: dict | None = None) -> None:
        """Export as a ``repro.obs`` Chrome trace; raise if it is invalid."""
        from repro import obs

        depth: list[int] = []
        for s in self.spans:
            depth.append(depth[s.parent] + 1 if s.parent >= 0 else 0)
        pid = os.getpid()
        spans = [
            obs.Span(
                name=s.name,
                cat=s.phase,
                start=s.start,
                dur=max(s.dur, 0.0),
                pid=pid,
                stream=0,
                depth=depth[i],
                args={**(s.args or {}), "op": s.op, "parent": s.parent},
            )
            for i, s in enumerate(self.spans)
        ]
        payload = obs.chrome_trace(spans, metrics={"counters": dict(self.counts),
                                                   **(metrics or {})})
        problems = obs.validate_chrome_trace(payload)
        if problems:
            raise ValueError("invalid chrome trace: " + "; ".join(problems[:5]))
        with open(path, "w") as fh:
            json.dump(payload, fh)
