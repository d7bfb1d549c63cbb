"""Hierarchical span tracer with a near-zero disabled fast path.

Spans are recorded into a bounded, thread-safe ring buffer (a
``collections.deque`` with ``maxlen`` — appends are atomic under the
GIL) and tagged with the recording process id, a stream id (the thread
ident), and the nesting depth of the enclosing span stack.  Timestamps
come from :func:`repro.util.timing.now` (``CLOCK_MONOTONIC`` on Linux,
which is system-wide), so spans recorded in different processes of one
grid run live on a single comparable timeline after
:func:`merge_spans`.

Disabled mode is the design center: :func:`span` returns a shared no-op
context manager and :func:`traced` wraps nothing, so instrumentation in
hot scheduler loops costs one boolean check.  :func:`timed` measures an
interval the caller reads back and records it only when tracing is on.
Callers that want to
attach span arguments pass ``args_fn`` — a zero-argument callable built
lazily *only when tracing is enabled and the span closes* — never an
eagerly-built f-string or dict (lint rule RPL006 enforces this in
hot-path files).

Enable via the ``REPRO_TRACE`` environment variable (any value other
than ``""``/``"0"``), or programmatically with :func:`enable_tracing`.
"""

from __future__ import annotations

import functools
import os
import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence, TypeVar, Union

from repro.util.timing import now

__all__ = [
    "Span",
    "span",
    "timed",
    "traced",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "reset",
    "drain_spans",
    "peek_spans",
    "ingest_spans",
    "merge_spans",
    "span_sort_key",
    "DEFAULT_BUFFER_SPANS",
]

#: Ring-buffer capacity (spans) unless ``REPRO_TRACE_BUFFER`` overrides it.
#: Old spans are dropped first — a trace that outgrows the buffer keeps
#: its tail, which is the part a perf investigation usually needs.
DEFAULT_BUFFER_SPANS = 65536

_F = TypeVar("_F", bound=Callable[..., Any])


@dataclass(frozen=True)
class Span:
    """One closed span: what ran, when, for how long, and where.

    ``start`` and ``dur`` are seconds on the :func:`repro.util.timing.now`
    timeline; ``pid`` is the recording process, ``stream`` the recording
    thread's ident, and ``depth`` the number of enclosing spans open on
    that stream when this one opened.  ``args`` holds the lazily-built
    annotation mapping, or ``None``.
    """

    name: str
    cat: str
    start: float
    dur: float
    pid: int
    stream: int
    depth: int
    args: Mapping[str, Any] | None = None


def _env_enabled() -> bool:
    return os.environ.get("REPRO_TRACE", "") not in ("", "0")


def _env_buffer() -> int:
    raw = os.environ.get("REPRO_TRACE_BUFFER", "")
    try:
        cap = int(raw)
    except ValueError:
        return DEFAULT_BUFFER_SPANS
    return cap if cap > 0 else DEFAULT_BUFFER_SPANS


_ENABLED: bool = _env_enabled()
_BUFFER: deque[Span] = deque(maxlen=_env_buffer())
_LOCK = threading.Lock()
_LOCAL = threading.local()


class _SpanHandle:
    """One live interval: ``elapsed`` always, a buffered span if ``record``."""

    __slots__ = ("_name", "_cat", "_args_fn", "_record", "_start", "_depth", "elapsed")

    def __init__(
        self,
        name: str,
        cat: str,
        args_fn: Callable[[], Mapping[str, Any]] | None,
        record: bool = True,
    ) -> None:
        self._name = name
        self._cat = cat
        self._args_fn = args_fn
        self._record = record
        self.elapsed = 0.0

    def __enter__(self) -> "_SpanHandle":
        if self._record:
            depth = getattr(_LOCAL, "depth", 0)
            _LOCAL.depth = depth + 1
            self._depth = depth
        self._start = now()
        return self

    def __exit__(self, *exc: object) -> None:
        # Record before unwinding so a span interrupted by an exception
        # (e.g. SanitizerError mid-chunk) still lands in the buffer.
        self.elapsed = now() - self._start
        if not self._record:
            return
        _LOCAL.depth = self._depth
        args = self._args_fn() if self._args_fn is not None else None
        _BUFFER.append(
            Span(
                self._name,
                self._cat,
                self._start,
                self.elapsed,
                os.getpid(),
                threading.get_ident(),
                self._depth,
                args,
            )
        )


class _NullSpan:
    """Shared no-op context manager returned when tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


def span(
    name: str,
    cat: str = "repro",
    args_fn: Callable[[], Mapping[str, Any]] | None = None,
) -> Union[_SpanHandle, _NullSpan]:
    """Open a hierarchical span; a shared no-op when tracing is disabled.

    ``args_fn`` (not a dict!) defers annotation building to span close,
    so the disabled path allocates nothing.
    """
    if not _ENABLED:
        return _NULL_SPAN
    return _SpanHandle(name, cat, args_fn)


def timed(
    name: str,
    cat: str = "repro",
    args_fn: Callable[[], Mapping[str, Any]] | None = None,
) -> _SpanHandle:
    """Measure an interval: ``.elapsed`` always, a span only when tracing.

    The span's ``dur`` is ``.elapsed`` bit-for-bit (the same two
    :func:`now` readings); a non-recording handle leaves the depth alone.
    Intervals nobody reads back use :func:`span`'s shared no-op instead.
    """
    return _SpanHandle(name, cat, args_fn, _ENABLED)


def traced(name: str | None = None, cat: str = "repro") -> Callable[[_F], _F]:
    """Decorator form of :func:`span`; span name defaults to ``__qualname__``.

    The enabled check happens per call, so decorating a function keeps
    it a plain call when tracing is off.
    """

    def deco(fn: _F) -> _F:
        label = name if name is not None else fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not _ENABLED:
                return fn(*args, **kwargs)
            with _SpanHandle(label, cat, None):
                return fn(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return deco


def tracing_enabled() -> bool:
    """True when spans and metrics are being recorded in this process."""
    return _ENABLED


def enable_tracing(buffer_spans: int | None = None) -> None:
    """Turn tracing on (idempotent); optionally resize the ring buffer."""
    global _ENABLED, _BUFFER
    if buffer_spans is not None and buffer_spans > 0:
        with _LOCK:
            _BUFFER = deque(_BUFFER, maxlen=buffer_spans)
    _ENABLED = True


def disable_tracing() -> None:
    """Turn tracing off; buffered spans stay until :func:`drain_spans`."""
    global _ENABLED
    _ENABLED = False


def reset() -> None:
    """Drop all buffered spans and reset the nesting depth.

    Worker initialisers call this so a forked child does not re-ship
    spans it inherited from the parent's buffer.
    """
    with _LOCK:
        _BUFFER.clear()
    _LOCAL.depth = 0


def drain_spans() -> list[Span]:
    """Atomically remove and return every buffered span."""
    with _LOCK:
        out = list(_BUFFER)
        _BUFFER.clear()
    return out


def peek_spans() -> list[Span]:
    """Return buffered spans without clearing them (tests, summaries)."""
    with _LOCK:
        return list(_BUFFER)


def ingest_spans(spans: Iterable[Span]) -> None:
    """Append spans recorded elsewhere (another process) to this buffer.

    Explicitly-shipped data is kept even when local tracing is disabled —
    the parent may drain-and-export after turning tracing off.
    """
    with _LOCK:
        _BUFFER.extend(spans)


def span_sort_key(s: Span) -> tuple[int, int, float, int]:
    """The canonical merge order: ``(pid, stream, start, depth)``."""
    return (s.pid, s.stream, s.start, s.depth)


def merge_spans(span_lists: Iterable[Sequence[Span]]) -> list[Span]:
    """Merge per-process span lists into one deterministic timeline.

    The stable sort by ``(pid, stream, start, depth)`` makes the merged
    order a pure function of the span set — independent of arrival
    order, chunk-to-worker assignment, or buffer interleaving.
    """
    merged: list[Span] = []
    for spans in span_lists:
        merged.extend(spans)
    merged.sort(key=span_sort_key)
    return merged
