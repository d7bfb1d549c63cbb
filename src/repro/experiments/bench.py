"""Engine + grid benchmark harness (``repro bench`` / ``scripts/run_bench.py``).

Times the heap and vector list-scheduling engines on a fixed set of
case families, benchmarks the parallel grid dispatcher, and writes a
schema-versioned JSON report (``BENCH_7.json`` at the repo root).  The
committed report is the perf-regression baseline: the batched engine
must stay at least :data:`TARGET_SPEEDUP` times the heap engine's
tasks/second on the large mesh family (the per-case ``speedup`` field:
heap/vector wall time — heap/bucket in the committed ``BENCH_7.json``,
written before the bucket engine was folded into the frontier kernel),
``engine="auto"`` must resolve to (within 10% of) the fastest engine on
every family (the per-case ``auto_engine`` field pins the routing), and
the makespan checksums pin that the engines still produce identical
schedules on the benchmark cases.  Schema v4 added per-phase wall-clock
breakdowns (``phases``) to every case and grid run.  Schema v5 times three engines
per case, slims the timed warm phase to the structural caches every
engine shares, and gates worker memory: every parallel grid run must
keep peak worker RSS under :data:`WORKER_RSS_CEILING_MB` and the best
parallel run on a ``cpu_count >= 4`` machine must sustain
:data:`TARGET_GRID_ROWS_FACTOR` times the committed v4 serial baseline
of :data:`BASELINE_SERIAL_ROWS_PER_SEC` rows/second.

Schema v6 makes *construction* a first-class timed phase: every case's
``phases`` dict splits instance acquisition into ``mesh_s`` (mesh
generation, memoised), ``build_s`` (batched DAG construction via
:func:`repro.sweeps.dag_builder.build_instance_batched`, which
pre-materialises per-direction levels), and ``cache_s`` (time spent in
the content-addressed build cache, 0 unless ``REPRO_CACHE_DIR`` is
set), alongside the v5 ``setup_s``/``warm_s``.  Because the batched
builder pre-pays the level structure, ``setup_s`` (rng + delays +
assignment + priorities) must now beat the frozen v5 values in
:data:`V5_SETUP_S` by :data:`TARGET_SETUP_SPEEDUP` on the gated
families, and the per-family schedule checksums must equal the frozen
v5 values in :data:`V5_CASE_CHECKSUMS` — construction got faster, the
schedules did not change.  A new ``construction`` section times one
cold build (mesh + batched build + cache store) against a warm
cache-hit load of the same instance and must show byte-identical arrays
at :data:`TARGET_WARM_CONSTRUCTION_SPEEDUP` or better; ``repro bench
--families chain,mesh_large`` writes a partial report (case subset, no
grid section) for hot-path iteration.

Schema v7 adds the ``serve`` section: the resident ``repro serve``
daemon (:mod:`repro.serve`) against cold one-shot process startup.  One
``cold`` row times a fresh interpreter running a single grid cell end
to end (imports + mesh + DAG build + schedule); then, at each worker
count in :data:`SERVE_WORKERS` (``(1, 2)`` in smoke mode), a real
daemon subprocess serves the same cell family both *unbatched* (one
request per round trip, recording p50/p95 latency) and *batched* (all
requests pipelined on one connection so the daemon's coalescing window
folds them into grid chunks).  Every served summary is cross-checked
bit-identical to the serial :func:`repro.experiments.runner.run_cell`
result, every daemon must drain cleanly on SIGTERM (exit 0, zero
orphan segments), and a full report must show warm p50 latency at
least :data:`TARGET_WARM_SERVE_SPEEDUP` times better than the cold
one-shot — the daemon's reason to exist, gated.

Engine families
---------------
* ``mesh_large`` — the paper's S4 setting (tetrahedral mesh, k=24) at the
  top of its processor sweep (m=512).  Wide wavefronts; the frontier
  kernel dominates here.  **This is the family the
  ≥1.5x acceptance gate applies to.**
* ``mesh_standard`` — same mesh at k=8, m=32: the narrow regime where
  ``engine="auto"`` keeps the heap.  Benchmarked so the crossover stays
  visible in the report.
* ``chain`` — identical chains (depth = n, width = k): worst case for
  any batched engine, pure pipeline.
* ``wide_layer`` — wide shallow DAGs: best case for frontier batching;
  ``engine="auto"`` routes this family to the vector engine.

Grid family
-----------
The report's ``grid`` section times :func:`repro.experiments.runner.run_grid`
on one experiment grid at each worker count in :data:`GRID_WORKERS`
(``(1, 2)`` in smoke mode), recording rows/second, the dispatcher's chunk
plan, and each worker's peak RSS — the zero-copy shared-instance plane's
evidence that worker memory stays flat in the worker count.  Every
parallel run is cross-checked bit-identical against the serial rows.
``cpu_count`` is recorded alongside because wall-clock speedup is only
meaningful when the machine actually has the cores: the
:data:`TARGET_GRID_SPEEDUP` gate applies where ``cpu_count >= 4``.

Mesh size scales with the ``REPRO_BENCH_CELLS`` environment variable
(default 2000, the paper-scaled default of
:class:`~repro.experiments.configs.ExperimentConfig`); ``--smoke`` runs a
tiny grid in a couple of seconds for CI schema validation.
"""

from __future__ import annotations

import json
import os
import zlib

import numpy as np

from repro.core.assignment import random_cell_assignment
from repro.core.list_scheduler import list_schedule
from repro.core.random_delay import delayed_task_layers, draw_delays
from repro.util.rng import as_rng
from repro.util.timing import Timer

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BASELINE_SERIAL_ROWS_PER_SEC",
    "BENCH_ENGINES",
    "BENCH_FAMILIES",
    "DEFAULT_BENCH_CELLS",
    "GRID_WORKERS",
    "SERVE_WORKERS",
    "TARGET_SPEEDUP",
    "TARGET_GRID_SPEEDUP",
    "TARGET_GRID_ROWS_FACTOR",
    "TARGET_SETUP_SPEEDUP",
    "TARGET_WARM_CONSTRUCTION_SPEEDUP",
    "TARGET_WARM_SERVE_SPEEDUP",
    "V5_SETUP_S",
    "V5_CASE_CHECKSUMS",
    "WORKER_RSS_CEILING_MB",
    "bench_cases",
    "construction_bench",
    "grid_bench",
    "grid_bench_config",
    "run_bench",
    "serve_bench",
    "validate_bench",
    "write_bench",
]

#: Bump when the report layout changes; the filename tracks it
#: (``BENCH_<version>.json``) so stale baselines cannot be misread.
#: v6: mesh/build/cache construction phases per case, the cold-vs-warm
#: ``construction`` section, frozen-v5 setup and checksum gates, and
#: partial (``--families``) reports.  v7: the ``serve`` section — cold
#: one-shot process startup vs warm daemon p50/p95 latency, batched vs
#: unbatched throughput at each :data:`SERVE_WORKERS` count.
BENCH_SCHEMA_VERSION = 7

#: Engines every bench case times and cross-checks.
BENCH_ENGINES = ("heap", "vector")

#: Mesh size when ``REPRO_BENCH_CELLS`` is unset.
DEFAULT_BENCH_CELLS = 2000

#: Required vector/heap tasks-per-second ratio on the ``mesh_large``
#: family (measured ~3x on the default size).
TARGET_SPEEDUP = 1.5

#: Required grid rows/second ratio, 4 workers vs serial — gated on the
#: machine reporting ``cpu_count >= 4`` (a 1-core container cannot show
#: wall-clock parallel speedup no matter how good the dispatcher is).
TARGET_GRID_SPEEDUP = 1.5

#: Peak worker RSS (MiB) no parallel grid run may exceed.  Spawn-context
#: workers map the shared segment into a fresh interpreter, so their
#: high-water mark is attach + scheduling working set — the fork-era
#: copy-on-write snapshot of the parent heap put this near 860 MiB.
WORKER_RSS_CEILING_MB = 150.0

#: The committed schema-v4 serial grid throughput (rows/second) on the
#: reference container — the absolute baseline the parallel gate below
#: multiplies.  Frozen, not re-measured: re-deriving it each run would
#: let a serial regression silently lower the parallel bar.
BASELINE_SERIAL_ROWS_PER_SEC = 8.527

#: Required ratio of the best parallel run's rows/second over
#: :data:`BASELINE_SERIAL_ROWS_PER_SEC`, gated on ``cpu_count >= 4`` and
#: full (non-smoke) reports — smoke grids are too small for absolute
#: throughput to mean anything.
TARGET_GRID_ROWS_FACTOR = 3.0

#: Worker counts the grid family times in a full (non-smoke) run.
GRID_WORKERS = (1, 2, 4)

#: Every case family a full report must cover (``--families`` subsets).
BENCH_FAMILIES = ("mesh_large", "mesh_standard", "chain", "wide_layer")

#: Frozen schema-v5 ``setup_s`` values (reference container, default
#: cells, seed 0) for the families the v6 construction gate covers.
#: Frozen, not re-measured: the gate is "v6 setup beats what v5 paid",
#: and re-deriving the baseline each run would erase the comparison.
V5_SETUP_S = {"chain": 0.0988072, "mesh_large": 0.0013544}

#: Required ratio of frozen v5 ``setup_s`` over the v6 value on the
#: :data:`V5_SETUP_S` families — the batched builder pre-materialises
#: the level structure, so priority setup must get >= 3x cheaper.
TARGET_SETUP_SPEEDUP = 3.0

#: Frozen schema-v5 per-family schedule checksums (default cells, seed
#: 0).  Construction got faster; the schedules must not change — a v6
#: full report with a different checksum is a regression, not noise.
V5_CASE_CHECKSUMS = {
    "mesh_large": 2811619235,
    "mesh_standard": 3513323258,
    "chain": 4141441418,
    "wide_layer": 3530932037,
}

#: Required cold/warm ratio in the ``construction`` section: loading a
#: cache hit must be >= 5x faster than mesh + batched build + store.
TARGET_WARM_CONSTRUCTION_SPEEDUP = 5.0

#: Worker counts the ``serve`` section spins a daemon up at in a full
#: (non-smoke) run; smoke runs ``(1, 2)``.
SERVE_WORKERS = (1, 2, 4)

#: Required cold-one-shot / warm-daemon-p50 latency ratio on full
#: reports (the serve subsystem's acceptance gate): a resident daemon
#: that cannot beat fresh-process startup by 5x is not paying rent.
TARGET_WARM_SERVE_SPEEDUP = 5.0

_REQUIRED_CASE_KEYS = {
    "family",
    "n_tasks",
    "m",
    "k",
    "makespan",
    "checksum",
    "engines",
    "auto_engine",
    "phases",
}
_REQUIRED_ENGINE_KEYS = {"wall_time_s", "tasks_per_sec"}
_REQUIRED_GRID_RUN_KEYS = {
    "workers",
    "wall_time_s",
    "rows_per_sec",
    "n_chunks",
    "peak_worker_rss_mb",
    "identical_to_serial",
    "phases",
}
#: Per-phase keys required in every engine case's ``phases`` dict.
#: v6 splits instance acquisition into mesh/build/cache next to the v5
#: setup/warm pair.
_REQUIRED_CASE_PHASES = {"mesh_s", "build_s", "cache_s", "setup_s", "warm_s"}
#: Keys required in the report's ``construction`` section.
_REQUIRED_CONSTRUCTION_KEYS = {
    "family",
    "cells",
    "k",
    "cold_s",
    "warm_s",
    "speedup",
    "cache_hits",
    "byte_identical",
}
#: Per-phase keys required in a parallel grid run's ``phases`` dict
#: (mirrors :meth:`repro.parallel.DispatchStats.phases`); the serial
#: baseline records ``{"run_s"}`` instead.
_REQUIRED_PARALLEL_PHASES = {"warm_s", "plan_s", "publish_s", "dispatch_s", "wait_s"}
#: Keys required in the report's v7 ``serve`` section.
_REQUIRED_SERVE_KEYS = {
    "config",
    "cold",
    "runs",
    "warm_vs_cold_speedup",
    "leaked_segments",
}
#: Keys required in every per-worker-count serve run.
_REQUIRED_SERVE_RUN_KEYS = {
    "workers",
    "n_requests",
    "warm_p50_ms",
    "warm_p95_ms",
    "unbatched_wall_s",
    "unbatched_requests_per_sec",
    "batched_wall_s",
    "batched_requests_per_sec",
    "chunks_dispatched",
    "identical_to_serial",
    "clean_exit",
}


def _mesh_instance_timed(cells: int, k: int) -> tuple[object, dict]:
    """Build (or cache-load) one mesh-family instance with phase timings.

    Returns ``(instance, phases)`` where ``phases`` splits acquisition
    into ``mesh_s`` (memoised mesh generation), ``build_s`` (batched DAG
    construction), and ``cache_s`` (build-cache load/store; 0.0 when
    ``REPRO_CACHE_DIR`` is unset).  A cache hit skips the build entirely
    (``build_s == 0``); either way the instance arrives with its level
    structure pre-materialised.
    """
    from repro import cache as build_cache
    from repro.experiments.runner import _mesh_cache
    from repro.sweeps.dag_builder import DEFAULT_TOL, build_instance_batched
    from repro.sweeps.directions import directions_for_mesh

    cache_s = 0.0
    key = None
    if build_cache.cache_dir() is not None:
        dirs = directions_for_mesh(3, k)
        key = build_cache.instance_key(
            "tetonly", cells, 0, k, DEFAULT_TOL, dirs
        )
        with Timer() as t_load:
            inst = build_cache.load_instance(key)
        cache_s += t_load.elapsed
        if inst is not None:
            return inst, {
                "mesh_s": 0.0,
                "build_s": 0.0,
                "cache_s": cache_s,
            }
    with Timer() as t_mesh:
        mesh = _mesh_cache("tetonly", cells, 0)
    dirs = directions_for_mesh(mesh.dim, k)
    with Timer() as t_build:
        inst = build_instance_batched(mesh, dirs)
    if key is not None:
        with Timer() as t_store:
            build_cache.store_instance(key, inst)
        cache_s += t_store.elapsed
    return inst, {
        "mesh_s": t_mesh.elapsed,
        "build_s": t_build.elapsed,
        "cache_s": cache_s,
    }


def _family_instance_timed(builder) -> tuple[object, dict]:
    """Build one synthetic-family instance; levels warmed inside ``build_s``."""
    with Timer() as t_build:
        inst = builder()
        inst.warm_levels()
    return inst, {"mesh_s": 0.0, "build_s": t_build.elapsed, "cache_s": 0.0}


def bench_cases(
    smoke: bool = False,
    cells: int | None = None,
    families: list | tuple | None = None,
) -> list[dict]:
    """The benchmark grid: ``{"family", "m", "k", "build"}`` dicts.

    ``build()`` constructs the case's instance on demand and returns
    ``(instance, phases)`` with the v6 ``mesh_s/build_s/cache_s``
    breakdown — construction is part of what the bench measures now, so
    cases must not pre-build.  ``families`` (names from
    :data:`BENCH_FAMILIES`) selects a subset for hot-path iteration.
    """
    if cells is None:
        cells = int(os.environ.get("REPRO_BENCH_CELLS", DEFAULT_BENCH_CELLS))
    if smoke:
        cells = min(cells, 120)
    from repro.instances.families import identical_chains, wide_shallow

    mesh_m = 64 if smoke else 512
    n = cells
    cases = [
        {
            "family": "mesh_large",
            "m": mesh_m,
            "k": 24,
            "build": lambda: _mesh_instance_timed(n, k=24),
        },
        {
            "family": "mesh_standard",
            "m": 32,
            "k": 8,
            "build": lambda: _mesh_instance_timed(n, k=8),
        },
        {
            "family": "chain",
            "m": 8,
            "k": 8,
            "build": lambda: _family_instance_timed(
                lambda: identical_chains(max(n // 4, 16), 8)
            ),
        },
        {
            "family": "wide_layer",
            "m": mesh_m,
            "k": 4,
            "build": lambda: _family_instance_timed(
                lambda: wide_shallow(4 * n, 4, seed=0)
            ),
        },
    ]
    if families is None:
        return cases
    unknown = set(families) - set(BENCH_FAMILIES)
    if unknown:
        raise ValueError(
            f"unknown bench families {sorted(unknown)}; "
            f"known: {list(BENCH_FAMILIES)}"
        )
    return [c for c in cases if c["family"] in set(families)]


def _time_engine(inst, m, assignment, priority, engine, repeats):
    # One untimed warm-up run: the first run on an engine builds that
    # engine's private caches (heap: Python successor lists), so the
    # timed repeats measure scheduling work alone and the case's
    # ``warm_s`` phase stays structural.
    schedule = list_schedule(
        inst, m, assignment, priority=priority, engine=engine
    )
    best = float("inf")
    for _ in range(repeats):
        with Timer() as t:
            schedule = list_schedule(
                inst, m, assignment, priority=priority, engine=engine
            )
        best = min(best, t.elapsed)
    return best, schedule


def construction_bench(smoke: bool = False, cells: int | None = None) -> dict:
    """Cold-vs-warm instance construction through the build cache.

    Cold = mesh generation + batched DAG build + cache store; warm = one
    :func:`repro.cache.load_instance` hit on the same content key,
    inside a throwaway cache directory (the caller's ``REPRO_CACHE_DIR``
    is untouched).  The loaded instance's exported arrays are compared
    byte-for-byte against the cold build's — the cache must be an exact
    substitute, not an approximation — and the hit is confirmed via the
    :data:`repro.cache.COUNTERS` delta so a silent rebuild cannot
    masquerade as a warm load.
    """
    import tempfile

    from repro import cache as build_cache
    from repro.mesh.generators import make_mesh
    from repro.sweeps.dag_builder import DEFAULT_TOL, build_instance_batched
    from repro.sweeps.directions import directions_for_mesh

    if cells is None:
        cells = int(os.environ.get("REPRO_BENCH_CELLS", DEFAULT_BENCH_CELLS))
    if smoke:
        cells = min(cells, 120)
    k = 8 if smoke else 24
    with tempfile.TemporaryDirectory(prefix="repro_bench_cache_") as tmp:
        with build_cache.override_dir(tmp):
            dirs = directions_for_mesh(3, k)
            key = build_cache.instance_key(
                "tetonly", cells, 0, k, DEFAULT_TOL, dirs
            )
            before_hits = build_cache.COUNTERS["hit"]
            with Timer() as t_cold:
                mesh = make_mesh("tetonly", target_cells=cells, seed=0)
                inst = build_instance_batched(mesh, dirs)
                build_cache.store_instance(key, inst)
            with Timer() as t_warm:
                warm = build_cache.load_instance(key)
            hits = build_cache.COUNTERS["hit"] - before_hits
            cold_meta, cold_arrays = inst.export_arrays()
            warm_meta, warm_arrays = (
                warm.export_arrays() if warm is not None else (None, {})
            )
            identical = (
                warm is not None
                and cold_meta == warm_meta
                and set(cold_arrays) == set(warm_arrays)
                and all(
                    cold_arrays[name].dtype == warm_arrays[name].dtype
                    and cold_arrays[name].shape == warm_arrays[name].shape
                    and cold_arrays[name].tobytes()
                    == warm_arrays[name].tobytes()
                    for name in cold_arrays
                )
            )
    return {
        "family": "tetonly",
        "cells": int(cells),
        "k": int(k),
        "cold_s": t_cold.elapsed,
        "warm_s": t_warm.elapsed,
        "speedup": t_cold.elapsed / max(t_warm.elapsed, 1e-12),
        "cache_hits": int(hits),
        "byte_identical": bool(identical),
    }


def _serve_case(smoke: bool, cells: int | None) -> tuple[dict, int, int]:
    """The one grid cell the serve section times: ``(instance, m, n)``."""
    if cells is None:
        cells = int(os.environ.get("REPRO_BENCH_CELLS", DEFAULT_BENCH_CELLS))
    if smoke:
        cells = min(cells, 120)
    instance = {
        "mesh": "tetonly",
        "target_cells": int(cells),
        "mesh_seed": 0,
        "k": 4 if smoke else 8,
    }
    return instance, (8 if smoke else 32), (6 if smoke else 24)


def _percentile_ms(samples: list, q: float) -> float:
    """Nearest-rank percentile of a list of seconds, in milliseconds."""
    ordered = sorted(samples)
    idx = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[idx] * 1e3


def serve_bench(
    smoke: bool = False,
    cells: int | None = None,
    workers_list: tuple | None = None,
) -> dict:
    """Cold one-shot process vs the resident daemon; the ``serve`` section.

    ``cold`` times a fresh interpreter running one grid cell end to end
    (the price every daemon-less invocation pays).  Each run then
    drives a real ``python -m repro serve`` subprocess over its unix
    socket at one worker count: the instance is pre-published, the same
    cell family is served once sequentially (per-request p50/p95
    latency, unbatched throughput) and once fully pipelined on a single
    connection (batched throughput through the coalescing window), and
    every summary is compared against the serial
    :func:`repro.experiments.runner.run_cell` result — the daemon must
    be bit-identical, not merely fast.  Each daemon is drained with
    SIGTERM (``clean_exit``) and the section records any orphaned shm
    segments left behind.
    """
    import signal
    import subprocess
    import sys
    import tempfile

    import repro
    from repro.experiments.configs import ExperimentConfig
    from repro.experiments.runner import run_cell
    from repro.parallel import list_orphan_segments
    from repro.serve.client import ServeClient

    instance, m, n_requests = _serve_case(smoke, cells)
    if workers_list is None:
        workers_list = (1, 2) if smoke else SERVE_WORKERS
    algorithm = "random_delay_priority"
    seeds = list(range(n_requests))

    config = ExperimentConfig(
        mesh=instance["mesh"],
        target_cells=instance["target_cells"],
        k=instance["k"],
        m_values=(m,),
        block_sizes=(1,),
        algorithms=(algorithm,),
        seeds=tuple(seeds),
        mesh_seed=instance["mesh_seed"],
        name="serve_bench",
    )
    serial = [
        run_cell(config, algorithm, m, 1, seed).as_dict() for seed in seeds
    ]

    src_root = os.path.dirname(
        os.path.dirname(os.path.abspath(repro.__file__))
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )

    # Cold = what a daemon-less caller pays per cell: interpreter start,
    # imports, mesh generation, DAG build, one schedule.  The printed
    # makespan is checked against the serial baseline so a crashed or
    # short-circuited one-shot cannot pose as a fast cold path.
    cold_script = (
        "from repro.experiments.configs import ExperimentConfig\n"
        "from repro.experiments.runner import run_cell\n"
        f"config = ExperimentConfig(mesh={instance['mesh']!r}, "
        f"target_cells={instance['target_cells']}, k={instance['k']}, "
        f"m_values=({m},), block_sizes=(1,), "
        f"algorithms=({algorithm!r},), seeds=(0,), "
        f"mesh_seed={instance['mesh_seed']}, name='serve_cold')\n"
        f"print(run_cell(config, {algorithm!r}, {m}, 1, 0).makespan)\n"
    )
    with Timer() as t_cold:
        cold_proc = subprocess.run(
            [sys.executable, "-c", cold_script],
            env=env, capture_output=True, text=True,
        )
    cold_ok = (
        cold_proc.returncode == 0
        and cold_proc.stdout.strip() == str(serial[0]["makespan"])
    )

    runs = []
    best_warm_p50_s = float("inf")
    with tempfile.TemporaryDirectory(prefix="repro_serve_bench_") as tmp:
        for workers in workers_list:
            sock = os.path.join(tmp, f"serve_{workers}.sock")
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--socket", sock, "--workers", str(workers)],
                env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True,
            )
            try:
                if "ready" not in (proc.stdout.readline() or ""):
                    raise RuntimeError(
                        "serve daemon failed to start: " + proc.stderr.read()
                    )
                with ServeClient(sock) as client:
                    client.publish(instance)
                    latencies = []
                    sequential = []
                    for seed in seeds:
                        with Timer() as t_req:
                            summary = client.schedule(
                                instance, algorithm, m, 1, seed
                            )
                        latencies.append(t_req.elapsed)
                        sequential.append(summary.as_dict())
                    requests = [
                        {
                            "instance": instance,
                            "algorithm": algorithm,
                            "m": m,
                            "block_size": 1,
                            "seed": seed,
                        }
                        for seed in seeds
                    ]
                    with Timer() as t_batch:
                        batched = [
                            s.as_dict()
                            for s in client.schedule_many(requests)
                        ]
                    chunks = client.status()["batcher"]["chunks_dispatched"]
            finally:
                try:
                    proc.send_signal(signal.SIGTERM)
                    proc.communicate(timeout=120)
                except Exception:
                    proc.kill()
                    proc.communicate()
            unbatched_wall = sum(latencies)
            p50_ms = _percentile_ms(latencies, 0.50)
            best_warm_p50_s = min(best_warm_p50_s, p50_ms / 1e3)
            runs.append(
                {
                    "workers": int(workers),
                    "n_requests": int(n_requests),
                    "warm_p50_ms": p50_ms,
                    "warm_p95_ms": _percentile_ms(latencies, 0.95),
                    "unbatched_wall_s": unbatched_wall,
                    "unbatched_requests_per_sec": (
                        n_requests / unbatched_wall
                        if unbatched_wall > 0
                        else 0.0
                    ),
                    "batched_wall_s": t_batch.elapsed,
                    "batched_requests_per_sec": (
                        n_requests / t_batch.elapsed
                        if t_batch.elapsed > 0
                        else 0.0
                    ),
                    "chunks_dispatched": int(chunks),
                    "identical_to_serial": bool(
                        sequential == serial and batched == serial
                    ),
                    "clean_exit": proc.returncode == 0,
                }
            )
    return {
        "config": {
            "mesh": instance["mesh"],
            "cells": int(instance["target_cells"]),
            "k": int(instance["k"]),
            "algorithm": algorithm,
            "m": int(m),
            "block_size": 1,
        },
        "cold": {"wall_time_s": t_cold.elapsed, "ok": bool(cold_ok)},
        "runs": runs,
        "warm_vs_cold_speedup": (
            t_cold.elapsed / max(best_warm_p50_s, 1e-12)
        ),
        "leaked_segments": list_orphan_segments(),
    }


def run_bench(
    smoke: bool = False,
    cells: int | None = None,
    repeats: int | None = None,
    seed: int = 0,
    grid_workers: tuple | None = None,
    families: list | tuple | None = None,
) -> dict:
    """Run the full benchmark grid; returns the schema-v6 report dict.

    Each case builds its instance through the timed v6 construction
    phases, then times all of :data:`BENCH_ENGINES` on Algorithm 2's
    delayed-level priorities (best wall time over ``repeats`` runs,
    after one untimed warm-up run per engine) and cross-checks that the
    schedules are identical — a benchmark that silently compared
    different schedules would be meaningless.  The timed ``warm_s``
    phase covers only the structural caches every engine shares.  The
    ``grid`` section then times the parallel grid dispatcher at each
    count in ``grid_workers`` (default :data:`GRID_WORKERS`, or
    ``(1, 2)`` in smoke mode), the ``construction`` section times one
    cold-vs-warm build through the content-addressed cache, and the v7
    ``serve`` section races the resident daemon against cold one-shot
    process startup at each :data:`SERVE_WORKERS` count.

    ``families`` (a subset of :data:`BENCH_FAMILIES`) produces a
    *partial* report for hot-path iteration: only the selected case
    families run, the grid and construction sections are omitted
    (``None``), and ``partial: true`` is stamped so the validator skips
    the full-report completeness checks.
    """
    if repeats is None:
        repeats = 1 if smoke else 5
    partial = families is not None
    cases_out = []
    for case in bench_cases(smoke=smoke, cells=cells, families=families):
        inst, build_phases = case["build"]()
        m = case["m"]
        with Timer() as t_setup:
            rng = as_rng(seed)
            delays = draw_delays(inst.k, rng)
            assignment = random_cell_assignment(inst.n_cells, m, rng)
            priority = delayed_task_layers(inst, delays)
        # Warm only the structural caches shared by every engine (CSR,
        # in-degrees, level structure); engine-private caches are built
        # by each engine's untimed warm-up run in ``_time_engine``.
        with Timer() as t_warm:
            union = inst.union_dag()
            union.successor_csr()
            union.indegree()
            union.num_levels()

        engines = {}
        schedules = {}
        for engine in BENCH_ENGINES:
            wall, sched = _time_engine(
                inst, m, assignment, priority, engine, repeats
            )
            engines[engine] = {
                "wall_time_s": wall,
                "tasks_per_sec": inst.n_tasks / wall if wall > 0 else 0.0,
            }
            schedules[engine] = sched
        for engine in BENCH_ENGINES[1:]:
            if not np.array_equal(
                schedules["heap"].start, schedules[engine].start
            ):
                raise AssertionError(
                    f"heap and {engine} engines disagree on bench family "
                    f"{case['family']!r} — benchmark aborted"
                )
        from repro.core.list_scheduler import resolve_engine

        start = np.ascontiguousarray(schedules["heap"].start, dtype=np.int64)
        cases_out.append(
            {
                "family": case["family"],
                "n_tasks": int(inst.n_tasks),
                "m": int(m),
                "k": int(case["k"]),
                "makespan": int(schedules["heap"].makespan),
                "checksum": int(zlib.crc32(start.tobytes())),
                "engines": engines,
                "auto_engine": resolve_engine(
                    "auto", priority, inst, m, assignment
                ),
                "speedup": engines["heap"]["wall_time_s"]
                / max(engines["vector"]["wall_time_s"], 1e-12),
                "phases": {
                    **build_phases,
                    "setup_s": t_setup.elapsed,
                    "warm_s": t_warm.elapsed,
                },
            }
        )
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "smoke": bool(smoke),
        "partial": partial,
        "families": [c["family"] for c in cases_out],
        "repeats": int(repeats),
        "seed": int(seed),
        "cpu_count": int(os.cpu_count() or 1),
        "cells": int(
            cells
            if cells is not None
            else int(os.environ.get("REPRO_BENCH_CELLS", DEFAULT_BENCH_CELLS))
        ),
        "cases": cases_out,
        "grid": (
            None
            if partial
            else grid_bench(smoke=smoke, cells=cells, workers_list=grid_workers)
        ),
        "construction": (
            None if partial else construction_bench(smoke=smoke, cells=cells)
        ),
        "serve": (None if partial else serve_bench(smoke=smoke, cells=cells)),
    }


def grid_bench_config(smoke: bool = False, cells: int | None = None):
    """The experiment grid the ``grid`` bench family times.

    Sized so a full run exercises both block regimes (per-cell and
    blocked) and two algorithm families over a few thousand cells; smoke
    mode shrinks it to seconds for CI schema validation.
    """
    from repro.experiments.configs import ExperimentConfig

    if cells is None:
        cells = int(os.environ.get("REPRO_BENCH_CELLS", DEFAULT_BENCH_CELLS))
    if smoke:
        return ExperimentConfig(
            mesh="tetonly",
            target_cells=min(cells, 120),
            k=4,
            m_values=(8,),
            block_sizes=(1,),
            algorithms=("random_delay_priority",),
            seeds=(0, 1),
            name="bench_grid",
        )
    return ExperimentConfig(
        mesh="tetonly",
        target_cells=cells,
        k=8,
        m_values=(16, 64),
        block_sizes=(1, 16),
        algorithms=("random_delay_priority", "dfds"),
        seeds=(0, 1, 2),
        name="bench_grid",
    )


def grid_bench(
    smoke: bool = False,
    cells: int | None = None,
    workers_list: tuple | None = None,
) -> dict:
    """Time ``run_grid`` at each worker count; returns the ``grid`` section.

    Every parallel run's rows are compared against the serial rows and
    must match bit-for-bit (``identical_to_serial``); worker peak RSS
    comes from each worker's ``VmHWM`` via the dispatcher's chunk
    results, so flat memory across worker counts is directly visible in
    the report.
    """
    from repro.experiments.runner import run_grid
    from repro.parallel import DispatchStats, list_orphan_segments

    if workers_list is None:
        workers_list = (1, 2) if smoke else GRID_WORKERS
    # The serial run is the correctness baseline — always measure it, first.
    workers_list = (1,) + tuple(w for w in workers_list if w != 1)
    config = grid_bench_config(smoke=smoke, cells=cells)
    n_rows = (
        len(config.algorithms) * len(config.block_sizes) * len(config.m_values)
    )
    runs = []
    serial_rows = None
    for workers in workers_list:
        stats = DispatchStats()
        with Timer() as t_run:
            rows = run_grid(
                config, with_comm=True, workers=workers, stats=stats
            )
        wall = t_run.elapsed
        if workers == 1:
            serial_rows = rows
        # The serial path never enters the dispatcher, so its breakdown
        # is the single phase it has; parallel runs record the
        # dispatcher's full warm/plan/publish/dispatch/wait split.
        phases = (
            {"run_s": wall}
            if workers == 1
            else {k: float(v) for k, v in stats.phases().items()}
        )
        runs.append(
            {
                "workers": int(workers),
                "wall_time_s": wall,
                "rows_per_sec": n_rows / wall if wall > 0 else 0.0,
                "n_chunks": int(stats.n_chunks),
                "chunk_cells": list(stats.chunk_cells),
                "peak_worker_rss_mb": float(stats.peak_worker_rss_mb),
                "identical_to_serial": bool(
                    serial_rows is not None and rows == serial_rows
                ),
                "phases": phases,
            }
        )
    serial = next(r for r in runs if r["workers"] == 1)
    return {
        "config": {
            "mesh": config.mesh,
            "cells": int(config.target_cells),
            "k": int(config.k),
            "m_values": list(config.m_values),
            "block_sizes": list(config.block_sizes),
            "algorithms": list(config.algorithms),
            "seeds": list(config.seeds),
            "n_rows": int(n_rows),
        },
        "runs": runs,
        "speedups": {
            str(r["workers"]): serial["wall_time_s"]
            / max(r["wall_time_s"], 1e-12)
            for r in runs
            if r["workers"] != 1
        },
        "leaked_segments": list_orphan_segments(),
    }


def validate_bench(report: dict) -> list[str]:
    """Schema + perf-gate check for a bench report; returns problems.

    A *partial* report (``partial: true``, from ``--families``) skips
    the family-completeness, grid, and construction checks — its cases
    are still schema-checked and, at the reference size, still held to
    the frozen-v5 setup and checksum gates.  The v5 gates apply only to
    full-fidelity reports (non-smoke, default cells, seed 0): the frozen
    numbers mean nothing at other sizes.
    """
    problems = []
    if not isinstance(report, dict):
        return ["report is not a dict"]
    if report.get("schema_version") != BENCH_SCHEMA_VERSION:
        problems.append(
            f"schema_version is {report.get('schema_version')!r}, "
            f"expected {BENCH_SCHEMA_VERSION}"
        )
    if not isinstance(report.get("cpu_count"), int) or report.get(
        "cpu_count", 0
    ) < 1:
        problems.append("cpu_count is missing or not a positive int")
    partial = bool(report.get("partial"))
    gate_v5 = (
        not report.get("smoke")
        and report.get("cells") == DEFAULT_BENCH_CELLS
        and report.get("seed") == 0
    )
    cases = report.get("cases")
    if not isinstance(cases, list) or not cases:
        return problems + ["cases is missing or empty"]
    families = set()
    for i, case in enumerate(cases):
        missing = _REQUIRED_CASE_KEYS - set(case)
        if missing:
            problems.append(f"case {i} missing keys: {sorted(missing)}")
            continue
        fam = case["family"]
        families.add(fam)
        # auto must route to an engine this report timed (BENCH_7.json
        # predates the bucket engine's removal and routes mesh_large there).
        if case["auto_engine"] not in case["engines"]:
            problems.append(
                f"case {i} auto_engine is {case['auto_engine']!r}, "
                f"expected one of the timed engines {sorted(case['engines'])}"
            )
        problems.extend(
            _validate_phases(
                case["phases"], _REQUIRED_CASE_PHASES, f"case {i}"
            )
        )
        if gate_v5 and fam in V5_SETUP_S:
            setup_s = case["phases"].get("setup_s")
            ceiling = V5_SETUP_S[fam] / TARGET_SETUP_SPEEDUP
            if isinstance(setup_s, (int, float)) and setup_s > ceiling:
                problems.append(
                    f"case {i} ({fam}) setup_s {setup_s:.6f}s misses the "
                    f"{TARGET_SETUP_SPEEDUP:g}x gate vs the frozen v5 "
                    f"{V5_SETUP_S[fam]:.6f}s (ceiling {ceiling:.6f}s)"
                )
        if gate_v5 and fam in V5_CASE_CHECKSUMS:
            if case["checksum"] != V5_CASE_CHECKSUMS[fam]:
                problems.append(
                    f"case {i} ({fam}) checksum {case['checksum']} differs "
                    f"from the frozen v5 value {V5_CASE_CHECKSUMS[fam]} — "
                    "construction changed the schedules"
                )
        for eng in BENCH_ENGINES:
            entry = case["engines"].get(eng)
            if entry is None:
                problems.append(f"case {i} ({fam}) lacks {eng}")
                continue
            missing = _REQUIRED_ENGINE_KEYS - set(entry)
            if missing:
                problems.append(
                    f"case {i} engine {eng} missing keys: {sorted(missing)}"
                )
            elif entry["wall_time_s"] <= 0 or entry["tasks_per_sec"] <= 0:
                problems.append(
                    f"case {i} engine {eng} has non-positive timings"
                )
    if partial:
        unknown = families - set(BENCH_FAMILIES)
        if unknown:
            problems.append(
                f"partial report has unknown families {sorted(unknown)}"
            )
        return problems
    for fam in BENCH_FAMILIES:
        if fam not in families:
            problems.append(f"family {fam!r} missing from report")
    problems.extend(
        _validate_grid(
            report.get("grid"),
            smoke=bool(report.get("smoke")),
            cpu_count=report.get("cpu_count", 0),
        )
    )
    problems.extend(
        _validate_construction(
            report.get("construction"), smoke=bool(report.get("smoke"))
        )
    )
    problems.extend(
        _validate_serve(report.get("serve"), smoke=bool(report.get("smoke")))
    )
    return problems


def _validate_serve(section, smoke: bool = True) -> list[str]:
    """Schema + gate check for the report's v7 ``serve`` section.

    Every run must be bit-identical to the serial baseline, have served
    at least one dispatched chunk, and have drained to exit 0; full
    (non-smoke) reports must additionally cover every
    :data:`SERVE_WORKERS` count and beat cold process startup by
    :data:`TARGET_WARM_SERVE_SPEEDUP` on warm p50 latency.
    """
    if not isinstance(section, dict):
        return ["serve section is missing or not a dict"]
    missing = _REQUIRED_SERVE_KEYS - set(section)
    if missing:
        return [f"serve missing keys: {sorted(missing)}"]
    problems = []
    cold = section["cold"]
    if not isinstance(cold, dict) or not isinstance(
        cold.get("wall_time_s"), (int, float)
    ) or cold["wall_time_s"] <= 0:
        problems.append("serve cold run is missing or has non-positive timing")
    elif not cold.get("ok"):
        problems.append(
            "serve cold one-shot run failed or returned the wrong makespan"
        )
    runs = section["runs"]
    if not isinstance(runs, list) or not runs:
        return problems + ["serve.runs is missing or empty"]
    worker_counts = set()
    for i, run in enumerate(runs):
        missing = _REQUIRED_SERVE_RUN_KEYS - set(run)
        if missing:
            problems.append(f"serve run {i} missing keys: {sorted(missing)}")
            continue
        worker_counts.add(run["workers"])
        for key in (
            "warm_p50_ms",
            "warm_p95_ms",
            "unbatched_wall_s",
            "unbatched_requests_per_sec",
            "batched_wall_s",
            "batched_requests_per_sec",
        ):
            value = run[key]
            if not isinstance(value, (int, float)) or value <= 0:
                problems.append(
                    f"serve run {i} {key} is not a positive number"
                )
        if run["n_requests"] < 1:
            problems.append(f"serve run {i} made no requests")
        if run["chunks_dispatched"] < 1:
            problems.append(f"serve run {i} dispatched no chunks")
        if not run["identical_to_serial"]:
            problems.append(
                f"serve run {i} (workers={run['workers']}) summaries "
                "differ from the serial run_cell baseline"
            )
        if not run["clean_exit"]:
            problems.append(
                f"serve run {i} (workers={run['workers']}) daemon did "
                "not drain to exit 0 on SIGTERM"
            )
    if not smoke:
        missing_workers = set(SERVE_WORKERS) - worker_counts
        if missing_workers:
            problems.append(
                f"serve section lacks worker counts {sorted(missing_workers)}"
            )
        speedup = section["warm_vs_cold_speedup"]
        if not isinstance(speedup, (int, float)):
            problems.append("serve warm_vs_cold_speedup is not a number")
        elif speedup < TARGET_WARM_SERVE_SPEEDUP:
            problems.append(
                f"warm serve speedup {speedup:.1f}x is below the "
                f"{TARGET_WARM_SERVE_SPEEDUP:g}x gate vs cold process startup"
            )
    if section.get("leaked_segments"):
        problems.append(
            f"serve run leaked shm segments: {section['leaked_segments']}"
        )
    return problems


def _validate_construction(section, smoke: bool = True) -> list[str]:
    """Schema + gate check for the report's ``construction`` section.

    The warm load must be a *proven* cache hit (``cache_hits >= 1``)
    with byte-identical arrays in every report; the
    :data:`TARGET_WARM_CONSTRUCTION_SPEEDUP` ratio gate applies to full
    (non-smoke) reports, where the cold build is big enough to measure.
    """
    if not isinstance(section, dict):
        return ["construction section is missing or not a dict"]
    missing = _REQUIRED_CONSTRUCTION_KEYS - set(section)
    if missing:
        return [f"construction missing keys: {sorted(missing)}"]
    problems = []
    if section["cold_s"] <= 0 or section["warm_s"] <= 0:
        problems.append("construction has non-positive timings")
    if not section["byte_identical"]:
        problems.append(
            "construction warm load is not byte-identical to the cold build"
        )
    if section["cache_hits"] < 1:
        problems.append(
            "construction recorded no cache hit on the warm load"
        )
    if not smoke and section["speedup"] < TARGET_WARM_CONSTRUCTION_SPEEDUP:
        problems.append(
            f"warm construction speedup {section['speedup']:.1f}x is below "
            f"the {TARGET_WARM_CONSTRUCTION_SPEEDUP:g}x gate"
        )
    return problems


def _validate_phases(phases, required: set, where: str) -> list[str]:
    """Check one ``phases`` dict: required keys, non-negative numbers."""
    if not isinstance(phases, dict) or not phases:
        return [f"{where} phases is missing or empty"]
    problems = []
    missing = required - set(phases)
    if missing:
        problems.append(f"{where} phases missing keys: {sorted(missing)}")
    for key, value in phases.items():
        if not isinstance(value, (int, float)) or value < 0:
            problems.append(
                f"{where} phase {key!r} is not a non-negative number"
            )
    return problems


def _validate_grid(grid, smoke: bool = True, cpu_count: int = 0) -> list[str]:
    """Schema + gate check for the report's ``grid`` section.

    Beyond the per-run schema, parallel runs must keep peak worker RSS
    under :data:`WORKER_RSS_CEILING_MB`, and a full (non-smoke) report
    on a ``cpu_count >= 4`` machine must show at least one parallel run
    sustaining :data:`TARGET_GRID_ROWS_FACTOR` times
    :data:`BASELINE_SERIAL_ROWS_PER_SEC` rows/second.
    """
    if not isinstance(grid, dict):
        return ["grid section is missing or not a dict"]
    problems = []
    runs = grid.get("runs")
    if not isinstance(runs, list) or not runs:
        return ["grid.runs is missing or empty"]
    worker_counts = set()
    best_parallel_rows = 0.0
    for i, run in enumerate(runs):
        missing = _REQUIRED_GRID_RUN_KEYS - set(run)
        if missing:
            problems.append(f"grid run {i} missing keys: {sorted(missing)}")
            continue
        worker_counts.add(run["workers"])
        if run["wall_time_s"] <= 0 or run["rows_per_sec"] <= 0:
            problems.append(f"grid run {i} has non-positive timings")
        required_phases = (
            {"run_s"} if run["workers"] == 1 else _REQUIRED_PARALLEL_PHASES
        )
        problems.extend(
            _validate_phases(
                run["phases"], required_phases, f"grid run {i}"
            )
        )
        if not run["identical_to_serial"]:
            problems.append(
                f"grid run {i} (workers={run['workers']}) rows differ "
                "from the serial baseline"
            )
        if run["workers"] > 1:
            best_parallel_rows = max(best_parallel_rows, run["rows_per_sec"])
            if run["peak_worker_rss_mb"] <= 0:
                problems.append(
                    f"grid run {i} (workers={run['workers']}) lacks worker RSS"
                )
            elif run["peak_worker_rss_mb"] >= WORKER_RSS_CEILING_MB:
                problems.append(
                    f"grid run {i} (workers={run['workers']}) peak worker "
                    f"RSS {run['peak_worker_rss_mb']:.1f} MiB breaches the "
                    f"{WORKER_RSS_CEILING_MB:.0f} MiB ceiling"
                )
    if 1 not in worker_counts:
        problems.append("grid section lacks the serial (workers=1) baseline")
    if len(worker_counts) < 2:
        problems.append("grid section needs at least one parallel run")
    target_rows = TARGET_GRID_ROWS_FACTOR * BASELINE_SERIAL_ROWS_PER_SEC
    if (
        not smoke
        and cpu_count >= 4
        and worker_counts - {1}
        and best_parallel_rows < target_rows
    ):
        problems.append(
            f"best parallel grid throughput {best_parallel_rows:.2f} rows/s "
            f"is below the {target_rows:.2f} rows/s gate "
            f"({TARGET_GRID_ROWS_FACTOR}x the v4 serial baseline)"
        )
    if grid.get("leaked_segments"):
        problems.append(
            f"grid run leaked shm segments: {grid['leaked_segments']}"
        )
    return problems


def write_bench(report: dict, path: str) -> None:
    """Validate and write a report (sorted keys, trailing newline)."""
    problems = validate_bench(report)
    if problems:
        raise ValueError("invalid bench report: " + "; ".join(problems))
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
