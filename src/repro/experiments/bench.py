"""Engine + grid benchmark harness (``repro bench`` / ``scripts/run_bench.py``).

Times the heap and vector list-scheduling engines on a fixed set of
case families, the parallel grid dispatcher, cold-vs-warm instance
construction through the build cache, and the resident ``repro serve``
daemon against cold process startup, and writes a schema-versioned JSON
report (``BENCH_7.json`` at the repo root is the committed baseline).

Report sections
---------------
* ``cases`` — per family: each engine's best-of-``repeats`` wall time
  and tasks/second, the engine ``"auto"`` resolves to, the makespan, a
  CRC32 ``checksum`` of the start array (a perf "win" that changed the
  schedule cannot slip through), the heap/vector ``speedup``
  (heap/bucket in ``BENCH_7.json``, written before the bucket engine
  was folded into the frontier kernel), and a ``phases`` split:
  ``mesh_s``/``build_s``/``cache_s`` (instance acquisition), ``setup_s``
  (delays, assignment, priorities) and ``warm_s`` (only the structural
  caches every engine shares).
* ``grid`` — :func:`repro.experiments.runner.run_grid` at each count in
  :data:`GRID_WORKERS`: rows/second, the chunk plan, peak worker RSS, a
  bit-identical-to-serial flag and the dispatcher's phase split, next
  to the machine's ``cpu_count``.
* ``construction`` — one cold build-and-store against a warm cache-hit
  load of the same instance, with a byte-identity flag.
* ``serve`` — a cold one-shot process against a real daemon at each
  count in :data:`SERVE_WORKERS`, served unbatched (p50/p95 latency)
  and pipelined (batched throughput); every summary is cross-checked
  against the serial runner.

``--families`` writes a *partial* report (the selected cases only) for
hot-path iteration; ``--smoke`` runs tiny sizes in seconds for CI.

Gates
-----
Every acceptance check is one row of :data:`GATES`: a path into the
report, a comparator and threshold, and a named applies-when predicate.
:func:`evaluate_gates` walks the table and :func:`validate_bench`
returns the failing rows.

Engine families
---------------
* ``mesh_large`` — the paper's S4 setting (tetrahedral mesh, k=24) at the
  top of its processor sweep (m=512).  Wide wavefronts; the frontier
  kernel dominates here (the ``mesh_large_speedup`` gate).
* ``mesh_standard`` — same mesh at k=8, m=32: the narrow regime where
  ``engine="auto"`` keeps the heap.  Benchmarked so the crossover stays
  visible in the report.
* ``chain`` — identical chains (depth = n, width = k): worst case for
  any batched engine, pure pipeline.
* ``wide_layer`` — wide shallow DAGs: best case for frontier batching;
  ``engine="auto"`` routes this family to the vector engine.

Mesh size scales with the ``REPRO_BENCH_CELLS`` environment variable
(default 2000, the paper-scaled default of
:class:`~repro.experiments.configs.ExperimentConfig`).
"""

from __future__ import annotations

import json
import os
import re
import zlib

import numpy as np

from repro.core.list_scheduler import list_schedule
from repro.core.random_delay import delayed_task_layers, draw_randomness
from repro.experiments.gates import Gate, evaluate, format_value
from repro.util.timing import Timer

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BASELINE_SERIAL_ROWS_PER_SEC",
    "BENCH_ENGINES",
    "BENCH_FAMILIES",
    "DEFAULT_BENCH_CELLS",
    "GATES",
    "GRID_WORKERS",
    "SERVE_WORKERS",
    "V5_SETUP_S",
    "V5_CASE_CHECKSUMS",
    "WORKER_RSS_CEILING_MB",
    "bench_cases",
    "construction_bench",
    "evaluate_gates",
    "gate_table",
    "grid_bench",
    "grid_bench_config",
    "run_bench",
    "serve_bench",
    "validate_bench",
    "write_bench",
]

#: Bump when the report layout changes; the filename tracks it
#: (``BENCH_<version>.json``) so stale baselines cannot be misread.
BENCH_SCHEMA_VERSION = 7

#: Engines every bench case times and cross-checks.
BENCH_ENGINES = ("heap", "vector")

#: Mesh size when ``REPRO_BENCH_CELLS`` is unset.
DEFAULT_BENCH_CELLS = 2000

#: Peak worker RSS (MiB) no parallel grid run may exceed.  Spawn-context
#: workers map the shared segment into a fresh interpreter, so their
#: high-water mark is attach + scheduling working set — the fork-era
#: copy-on-write snapshot of the parent heap put this near 860 MiB.
WORKER_RSS_CEILING_MB = 150.0

#: The committed schema-v4 serial grid throughput (rows/second) on the
#: reference container — the absolute baseline the ``grid_rows_factor``
#: gate multiplies.  Frozen, not re-measured: re-deriving it each run
#: would let a serial regression silently lower the parallel bar.
BASELINE_SERIAL_ROWS_PER_SEC = 8.527

#: Worker counts the grid family times in a full (non-smoke) run.
GRID_WORKERS = (1, 2, 4)

#: Every case family a full report must cover (``--families`` subsets).
BENCH_FAMILIES = ("mesh_large", "mesh_standard", "chain", "wide_layer")

#: Frozen schema-v5 ``setup_s`` values (reference container, default
#: cells, seed 0) for the families the ``setup_vs_v5_*`` gates cover.
#: Frozen, not re-measured: the gate is "setup beats what v5 paid",
#: and re-deriving the baseline each run would erase the comparison.
V5_SETUP_S = {"chain": 0.0988072, "mesh_large": 0.0013544}

#: Frozen schema-v5 per-family schedule checksums (default cells, seed
#: 0).  Construction got faster; the schedules must not change — a full
#: report with a different checksum is a regression, not noise.
V5_CASE_CHECKSUMS = {
    "mesh_large": 2811619235,
    "mesh_standard": 3513323258,
    "chain": 4141441418,
    "wide_layer": 3530932037,
}

#: Worker counts the ``serve`` section spins a daemon up at in a full
#: (non-smoke) run; smoke runs ``(1, 2)``.
SERVE_WORKERS = (1, 2, 4)


def _bench_cells(smoke: bool, cells: int | None) -> int:
    """The mesh size a run builds: ``cells``, else ``REPRO_BENCH_CELLS``,
    else :data:`DEFAULT_BENCH_CELLS`; at most 120 in smoke mode."""
    if cells is None:
        cells = int(os.environ.get("REPRO_BENCH_CELLS", DEFAULT_BENCH_CELLS))
    return min(cells, 120) if smoke else cells


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
    from repro.sweeps.dag_builder import DEFAULT_TOL, build_instance
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
        inst = build_instance(mesh, dirs)
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
    from repro.instances.families import identical_chains, wide_shallow

    mesh_m = 64 if smoke else 512
    n = _bench_cells(smoke, cells)
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
    from repro.sweeps.dag_builder import DEFAULT_TOL, build_instance
    from repro.sweeps.directions import directions_for_mesh

    cells = _bench_cells(smoke, cells)
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
                inst = build_instance(mesh, dirs)
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

    instance = {
        "mesh": "tetonly",
        "target_cells": _bench_cells(smoke, cells),
        "mesh_seed": 0,
        "k": 4 if smoke else 8,
    }
    m, n_requests = (8, 6) if smoke else (32, 24)
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
    """Run the full benchmark grid; returns the schema-v7 report dict.

    Each case builds its instance through the timed construction
    phases, then times all of :data:`BENCH_ENGINES` on Algorithm 2's
    delayed-level priorities (best wall time over ``repeats`` runs,
    after one untimed warm-up run per engine) and cross-checks that the
    schedules are identical — a benchmark that silently compared
    different schedules would be meaningless.  The timed ``warm_s``
    phase covers only the structural caches every engine shares.  The
    ``grid`` section then times the parallel grid dispatcher at each
    count in ``grid_workers`` (default :data:`GRID_WORKERS`, or
    ``(1, 2)`` in smoke mode), the ``construction`` section times one
    cold-vs-warm build through the content-addressed cache, and the
    ``serve`` section races the resident daemon against cold one-shot
    process startup at each :data:`SERVE_WORKERS` count.  ``cells``
    records the mesh size every section built.

    ``families`` (a subset of :data:`BENCH_FAMILIES`) produces a
    *partial* report for hot-path iteration: only the selected case
    families run, the grid, construction and serve sections are
    ``None``, and ``partial: true`` is stamped so the gates that read
    those sections do not apply.
    """
    if repeats is None:
        repeats = 1 if smoke else 5
    cells = _bench_cells(smoke, cells)
    partial = families is not None
    cases_out = []
    for case in bench_cases(smoke=smoke, cells=cells, families=families):
        inst, build_phases = case["build"]()
        m = case["m"]
        with Timer() as t_setup:
            delays, assignment = draw_randomness(inst, m, seed)
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
        "cells": int(cells),
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

    cells = _bench_cells(smoke, cells)
    if smoke:
        return ExperimentConfig(
            mesh="tetonly",
            target_cells=cells,
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


def _vs_fastest(case: dict, engine: str) -> float:
    """``engine``'s wall time on one case over the fastest engine's."""
    walls = {name: e["wall_time_s"] for name, e in case["engines"].items()}
    return walls[engine] / min(walls.values())


#: Every acceptance gate of a bench report; a threshold lives here and
#: nowhere else.  :func:`evaluate_gates` walks the table.
GATES: tuple[Gate, ...] = (
    Gate("schema_version", "schema_version", "==", BENCH_SCHEMA_VERSION,
         "always", "the report layout this code writes"),
    Gate("cpu_count", "cpu_count", ">=", 1, "always",
         "the scaling gates key on the cores the run had"),
    Gate("all_families", "families", "==", 0, "full",
         "a full report times every family (value: how many are missing)",
         lambda fams: len(set(BENCH_FAMILIES) - set(fams))),
    Gate("case_counts", "cases[*].{n_tasks,makespan}", ">", 0, "always",
         "every case scheduled a non-empty instance"),
    Gate("case_engine_timings",
         "cases[*].engines.{heap,vector}.{wall_time_s,tasks_per_sec}", ">", 0,
         "always", "both engines were timed on every case"),
    Gate("case_phases", "cases[*].phases.{mesh_s,build_s,cache_s,setup_s,warm_s}",
         ">=", 0, "always", "construction, setup and warm are each timed"),
    Gate("auto_engine_timed", "cases[*]", "==", True, "always",
         "auto routes to an engine the case timed",
         lambda case: case["auto_engine"] in case["engines"]),
    Gate("auto_within_10pct", "cases", "<=", 1.10, "reference",
         "auto's engine is within 10% of the fastest on every family",
         lambda cases: [_vs_fastest(c, c["auto_engine"]) for c in cases
                        if c["auto_engine"] in c["engines"]]),
    Gate("mesh_large_speedup", "cases[family=mesh_large].speedup", ">=", 1.5,
         "reference", "the frontier kernel beats the heap on wide wavefronts"),
    Gate("wide_layer_frontier_fastest", "cases[family=wide_layer]", "<=", 1.0,
         "reference", "the frontier engine is the fastest on wide_layer",
         lambda case: _vs_fastest(case, "vector")),
    Gate("wide_layer_warm", "cases[family=wide_layer].phases.warm_s", "<", 1.0,
         "reference", "warm holds only the structural caches"),
    *(Gate(f"setup_vs_v5_{fam}", f"cases[family={fam}].phases.setup_s", "<=",
           v5 / 3.0, "reference", "setup is >= 3x cheaper than frozen v5")
      for fam, v5 in V5_SETUP_S.items()),
    *(Gate(f"checksum_{fam}", f"cases[family={fam}].checksum", "==", checksum,
           "reference", "the schedule equals the frozen v5 one")
      for fam, checksum in V5_CASE_CHECKSUMS.items()),
    Gate("grid_serial_run", "grid.runs[workers=1].phases.run_s", ">=", 0,
         "full", "the serial baseline the parallel runs are checked against"),
    Gate("grid_parallel_phases", "grid.runs[workers!=1].phases."
         "{warm_s,plan_s,publish_s,dispatch_s,wait_s}", ">=", 0, "full",
         "at least one parallel run, with the dispatcher's phase split"),
    Gate("grid_timings", "grid.runs[*].{wall_time_s,rows_per_sec}", ">", 0,
         "full", "every grid run was timed"),
    Gate("grid_identical", "grid.runs[*].identical_to_serial", "==", True,
         "full", "parallel rows are bit-identical to the serial rows"),
    Gate("worker_rss_ceiling", "grid.runs[workers!=1].peak_worker_rss_mb",
         "in", (0.0, WORKER_RSS_CEILING_MB), "full",
         "workers attach the shared instance, not a copy of the parent heap"),
    Gate("worker_rss_flat", "grid.runs", "<=", 1.25, "full, not smoke",
         "peak worker RSS stays flat across worker counts (max/min)",
         lambda runs: max(rss := [run["peak_worker_rss_mb"] for run in runs
                                  if run["workers"] != 1]) / min(rss)),
    Gate("grid_speedup_4w", "grid.speedups.4", ">=", 1.5, "cpu_count >= 4",
         "4 workers run the grid >= 1.5x faster than serial"),
    Gate("grid_rows_factor", "grid.runs", ">=", 3.0 * BASELINE_SERIAL_ROWS_PER_SEC,
         "cpu_count >= 4", "the best parallel run reaches 3x the v4 serial rows/s",
         lambda runs: max(run["rows_per_sec"] for run in runs
                          if run["workers"] != 1)),
    Gate("grid_leaked_segments", "grid.leaked_segments", "==", 0, "full",
         "the grid leaves no shared-memory segment behind", len),
    Gate("construction_cache_hit", "construction.{cold_s,warm_s,cache_hits}", ">",
         0, "full", "both loads were timed and the warm one is a counted hit"),
    Gate("construction_byte_identical", "construction.byte_identical", "==", True,
         "full", "the cache hit loads back the cold build's arrays"),
    Gate("construction_speedup", "construction.speedup", ">=", 5.0,
         "full, not smoke", "a cache hit loads >= 5x faster than a build"),
    Gate("serve_cold", "serve.cold.{ok,wall_time_s}", ">", 0, "full",
         "the cold one-shot was timed and printed the serial makespan"),
    Gate("serve_timings", "serve.runs[*].{warm_p50_ms,warm_p95_ms,unbatched_wall_s,"
         "unbatched_requests_per_sec,batched_wall_s,batched_requests_per_sec}",
         ">", 0, "full", "every daemon run was timed"),
    Gate("serve_identical", "serve.runs[*].identical_to_serial", "==", True,
         "full", "served summaries equal the serial run_cell results"),
    Gate("serve_clean_exit", "serve.runs[*].clean_exit", "==", True, "full",
         "every daemon drains to exit 0 on SIGTERM"),
    Gate("serve_coalesces", "serve.runs[*]", "<", 1.0, "full",
         "pipelined chunks per request (a sequential request is one chunk)",
         lambda run: (run["chunks_dispatched"] - run["n_requests"])
         / run["n_requests"]),
    Gate("all_serve_workers", "serve.runs", "==", 0, "full, not smoke",
         "a daemon ran at every SERVE_WORKERS count (value: how many missing)",
         lambda runs: len(set(SERVE_WORKERS) - {run["workers"] for run in runs})),
    Gate("warm_serve_speedup", "serve.warm_vs_cold_speedup", ">=", 5.0,
         "full, not smoke", "warm daemon p50 beats cold process startup 5x"),
    Gate("serve_batching_pays", "serve.runs[*]", ">", 1.0, "full, not smoke",
         "pipelined throughput beats one request per round trip",
         lambda run: run["batched_requests_per_sec"]
         / run["unbatched_requests_per_sec"]),
    Gate("serve_leaked_segments", "serve.leaked_segments", "==", 0, "full",
         "the daemons leave no shared-memory segment behind", len),
)

def _out_of_scope(report: dict) -> dict:
    """Why each applies-when name excludes ``report`` (``""``: it applies).

    ``reference`` is the fidelity the frozen numbers were measured at,
    partial reports included; ``cpu_count >= 4`` is where a wall-clock
    speedup can show.
    """
    partial = "partial report" if report.get("partial") else ""
    smoke = "smoke report" if report.get("smoke") else ""
    off_reference = next((
        f"{key} {report.get(key)} != {want}"
        for key, want in (("cells", DEFAULT_BENCH_CELLS), ("seed", 0))
        if report.get(key) != want
    ), "")
    cpu = report.get("cpu_count")
    cores = "" if isinstance(cpu, int) and cpu >= 4 else f"cpu_count {cpu} < 4"
    return {
        "always": "",
        "full": partial,
        "full, not smoke": partial or smoke,
        "reference": smoke or off_reference,
        "cpu_count >= 4": partial or smoke or cores,
    }


def evaluate_gates(report: dict) -> list[tuple[Gate, str, object]]:
    """:func:`repro.experiments.gates.evaluate` over :data:`GATES`.

    A gate skips when its ``when`` name excludes the report, or when it
    reads a case family the report did not run (``all_families`` holds
    full reports to every family).
    """
    if not isinstance(report, dict):
        report = {}
    scope = _out_of_scope(report)
    families = report.get("families") or ()

    def skip(gate: Gate) -> str:
        family = re.search(r"family=(\w+)", gate.path)
        if not scope[gate.when] and family and family[1] not in families:
            return f"{family[1]} not benchmarked"
        return scope[gate.when]

    return evaluate(GATES, report, skip)


def validate_bench(report: dict) -> list[str]:
    """The failing :data:`GATES` rows of ``report``, one line each; ``[]``
    when every gate that applies passes."""
    return [
        f"{gate.name}: {format_value(value)} vs {gate.op} "
        f"{format_value(gate.threshold)} — {gate.reason}"
        for gate, status, value in evaluate_gates(report)
        if status == "fail"
    ]


def gate_table(report: dict) -> str:
    """Every gate's status on ``report`` as an aligned text table."""
    lines = [f"{'gate':28s} {'status':30s} {'value':>11s}  threshold"]
    for gate, status, value in evaluate_gates(report):
        shown = "" if status.startswith("skipped") else format_value(value)
        lines.append(
            f"{gate.name:28s} {status:30s} {shown:>11s}  "
            f"{gate.op} {format_value(gate.threshold)}"
        )
    return "\n".join(lines)


def write_bench(report: dict, path: str) -> None:
    """Validate and write a report (sorted keys, trailing newline)."""
    problems = validate_bench(report)
    if problems:
        raise ValueError("invalid bench report: " + "; ".join(problems))
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
