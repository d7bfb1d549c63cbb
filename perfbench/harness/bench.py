"""Run one workload: set-up repetitions, timed phases, checks, metrics.

An untraced run (``trace=False``) times the whole ``seconds`` with the
tracer off and reports the end-to-end metrics.  A traced run spends
``seconds`` half untraced and half traced (alternate passes of a closed
loop; two loads in turn on serve_open), and reports the per-layer
metrics; the two sides give the tracing overhead.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field

from harness.cells import Faults
from harness.ledger import Ledger, geomean, percentile, reset_peak_rss
from harness.metrics import END_TO_END, ENGINES, OP_LAYERS, PER_LAYER, SETUP_LAYERS
from harness.serve_open import ServeOpen
from harness.trace import Tracer
from harness.workloads import OUT_DIR, Families, FiguresPar, GridPaper

WORKLOADS = {w.name: w for w in (GridPaper, Families, FiguresPar, ServeOpen)}

now = time.perf_counter


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    attempted: int
    failed: int
    failures: list
    #: name -> (value, unit)
    metrics: dict
    notes: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0


def run_workload(root: str, name: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full", inject=()) -> Result:
    reset_peak_rss()
    w = WORKLOADS[name](root, seed, scale, Faults(inject))
    tr = Tracer(enabled=trace)
    book = Ledger()
    try:
        reps, first, fastest = 0, 0.0, float("inf")
        window_s = w.setup_window_s if scale == "full" else 0.0
        started = now()
        while reps < w.setup_reps or now() - started < window_s:
            if reps:
                w.discard_setup(book)
            tr.phase = f"setup{reps}"
            t = now()
            w.setup(tr)
            took = now() - t
            first = first or took
            fastest = min(fastest, took)
            reps += 1
        window = now() - started
        tr.phase = "prepare"
        w.prepare(tr, book)
        main = Ledger()
        if trace:
            traced = Ledger()
            tr.phase = "timed"
            w.timed_traced(tr, main, traced, seconds)
            ledgers = [book, main, traced]
        else:
            w.timed(tr, main, seconds)
            ledgers = [book, main]
        w.finish(book)
        notes = [
            f"set-up: fastest of {reps} repetitions in {window:.1f} s "
            f"(first {first:.6g} s)",
            f"latency samples: {len(main.kept_latencies())} kept of "
            f"{len(main.latencies)} ops (fastest quarter per op input)",
            f"digest: crc32 {main.digest()} over "
            f"{len(main.digest_makespans)} makespans of the first pass",
        ]
        if trace:
            metrics = per_layer(w, tr, main, traced)
            notes += kind_table(tr)
            path = os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.json")
            try:
                os.makedirs(OUT_DIR, exist_ok=True)
                tr.write_chrome(path, metrics={k: v for k, (v, _) in metrics.items()})
                notes.append(f"wrote validated Chrome trace {path} "
                             f"({len(tr.spans)} spans)")
            except (OSError, ValueError) as exc:
                book.fail("trace export", exc)
        else:
            metrics = end_to_end(w, fastest, main)
    finally:
        w.close()
    return Result(
        workload=name, seed=seed, trace=trace,
        attempted=sum(led.attempted for led in ledgers),
        failed=sum(led.failed for led in ledgers),
        failures=[f for led in ledgers for f in led.failures],
        metrics=metrics, notes=notes,
    )


def end_to_end(w, setup_s: float, led: Ledger) -> dict:
    lat = led.kept_latencies()
    values = {
        "setup_s": setup_s,
        "cells_per_s": led.rate() or None,
        "p50_ms": percentile(lat, 50) * 1e3 if lat else None,
        "p90_ms": percentile(lat, 90) * 1e3 if lat else None,
        "peak_rss_mb": w.peak_rss_mb(),
        "ratio_geomean": geomean(led.ratios) if led.ratios else None,
        "c1_frac_mean": statistics.fmean(led.c1_fracs) if led.c1_fracs else None,
    }
    return {k: (values[k], unit) for k, unit in END_TO_END.items()}


def per_layer(w, tr: Tracer, untraced: Ledger, traced: Ledger) -> dict:
    """Per-layer metrics from the spans; a layer a workload skips reads 0."""
    self_t = tr.self_times()
    values: dict = dict.fromkeys(PER_LAYER, 0.0)
    for metric, span in SETUP_LAYERS.items():
        per_setup: dict = {}
        for s, st in zip(tr.spans, self_t):
            if s.name == span and s.phase != "timed":
                per_setup[s.phase] = per_setup.get(s.phase, 0.0) + st
        if per_setup:
            values[metric] = min(per_setup.values())
    for metric, span in OP_LAYERS.items():
        per_parent: dict = {}
        for s, st in zip(tr.spans, self_t):
            if s.name == span and s.phase == "timed":
                per_parent[s.parent] = per_parent.get(s.parent, 0.0) + st
        if per_parent:
            values[metric] = statistics.fmean(per_parent.values())
    for engine in ENGINES:
        values[f"core.engine.{engine}"] = tr.counts.get(f"core.engine.{engine}", 0)
    values["unattributed_frac"] = w.unattributed(tr)
    base = untraced.rate()
    values["trace.overhead_frac"] = 1.0 - traced.rate() / base if base else 0.0
    values.update(w.layer_extras(tr))
    return {k: (values[k], unit) for k, unit in PER_LAYER.items()}


def kind_table(tr: Tracer, top: int = 4) -> list:
    """Per op kind: mean op wall time and its largest layers by self time."""
    self_t = tr.self_times()
    kind_of = {s.op: s.args["kind"] for s in tr.spans
               if s.name == "op" and s.phase == "timed"}
    walls: dict = {}
    layers: dict = {}
    for s, st in zip(tr.spans, self_t):
        if s.phase != "timed" or s.op is None:
            continue
        kind = kind_of[s.op]
        if s.name == "op":
            walls.setdefault(kind, []).append(s.dur)
            name = "(unattributed)"
        else:
            name = s.name
        per = layers.setdefault(kind, {})
        per[name] = per.get(name, 0.0) + st
    lines = ["per op kind: mean wall, then the largest layers (self ms per op)"]
    for kind in sorted(walls):
        n = len(walls[kind])
        ranked = sorted(layers[kind].items(), key=lambda kv: -kv[1])[:top]
        parts = ", ".join(f"{name} {total / n * 1e3:.2f}" for name, total in ranked)
        lines.append(f"  {kind:24s} {n:4d} ops {statistics.fmean(walls[kind]) * 1e3:9.2f} ms"
                     f" | {parts}")
    return lines
