"""Counters/gauges registry riding the same enable switch as the tracer.

Metrics answer the questions spans are too coarse for: how many
supersteps a schedule took, how often the Dag memo caches hit, how large
the ready frontier peaked.  Counters accumulate by summation; gauges
keep a high-water mark (``gauge_max``) or the last written value
(``gauge``).

Everything is gated on :func:`repro.obs.tracer.tracing_enabled`, so an
``inc`` in a scheduler loop costs one boolean check when observability
is off.  Metric names must be constant strings at hot call sites — no
f-strings (RPL006); use dotted namespaces like
``"scheduler.vector.supersteps"``.
"""

from __future__ import annotations

import threading
from typing import Mapping

from repro.obs import tracer

__all__ = [
    "inc",
    "gauge",
    "gauge_max",
    "metrics_snapshot",
    "drain_metrics",
    "reset_metrics",
    "merge_metrics",
    "ingest_metrics",
]

_LOCK = threading.Lock()
_COUNTERS: dict[str, int] = {}
_GAUGES: dict[str, float] = {}


def inc(name: str, value: int = 1) -> None:
    """Add ``value`` to counter ``name`` (no-op while tracing is disabled)."""
    if not tracer.tracing_enabled():
        return
    with _LOCK:
        _COUNTERS[name] = _COUNTERS.get(name, 0) + value


def gauge(name: str, value: float) -> None:
    """Set gauge ``name`` to ``value`` (last write wins; no-op when off)."""
    if not tracer.tracing_enabled():
        return
    with _LOCK:
        _GAUGES[name] = float(value)


def gauge_max(name: str, value: float) -> None:
    """Raise gauge ``name`` to ``value`` if larger (high-water mark)."""
    if not tracer.tracing_enabled():
        return
    with _LOCK:
        prev = _GAUGES.get(name)
        if prev is None or value > prev:
            _GAUGES[name] = float(value)


def metrics_snapshot() -> dict[str, dict[str, float]]:
    """Copy of the registry: ``{"counters": {...}, "gauges": {...}}``."""
    with _LOCK:
        return {"counters": dict(_COUNTERS), "gauges": dict(_GAUGES)}


def drain_metrics() -> dict[str, dict[str, float]]:
    """Snapshot and clear the registry atomically."""
    with _LOCK:
        snap = {"counters": dict(_COUNTERS), "gauges": dict(_GAUGES)}
        _COUNTERS.clear()
        _GAUGES.clear()
    return snap


def reset_metrics() -> None:
    """Clear the registry without reading it."""
    with _LOCK:
        _COUNTERS.clear()
        _GAUGES.clear()


def ingest_metrics(snapshot: Mapping[str, Mapping[str, float]] | None) -> None:
    """Fold a shipped snapshot into the local registry.

    Counters add; gauges combine by max (every gauge in the package is a
    high-water mark, and max is the only order-independent combiner that
    keeps the merged registry deterministic across arrival orders).
    Explicitly-shipped data is kept even when local tracing is disabled.
    """
    if not snapshot:
        return
    with _LOCK:
        for name, value in snapshot.get("counters", {}).items():
            _COUNTERS[name] = _COUNTERS.get(name, 0) + int(value)
        for name, value in snapshot.get("gauges", {}).items():
            prev = _GAUGES.get(name)
            if prev is None or value > prev:
                _GAUGES[name] = float(value)


def merge_metrics(
    snapshots: list[Mapping[str, Mapping[str, float]]],
) -> dict[str, dict[str, float]]:
    """Combine snapshots from several processes into one registry dict."""
    counters: dict[str, int] = {}
    gauges: dict[str, float] = {}
    for snap in snapshots:
        if not snap:
            continue
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + int(value)
        for name, value in snap.get("gauges", {}).items():
            prev = gauges.get(name)
            if prev is None or value > prev:
                gauges[name] = float(value)
    return {"counters": counters, "gauges": gauges}
