"""Engine + cache benchmark harness (``repro bench`` / ``scripts/run_bench.py``).

Times the heap and vector list-scheduling engines on a fixed set of
case families and cold-vs-warm instance construction through the build
cache, and writes a schema-versioned JSON report (``BENCH_7.json`` at
the repo root is the last committed full report).  What the report
freezes is the schedules: the per-family checksums, heap ≡ frontier on
every case, and the cache's byte identity.  End-to-end grid and serve
latency and throughput are perfbench's (``perfbench/run.py``, workloads
``figures_par`` and ``serve_open``).

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
* ``construction`` — one cold build-and-store against a warm cache-hit
  load of the same instance, with a byte-identity flag.

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

from repro import obs
from repro.core.list_scheduler import list_schedule, resolve_engine
from repro.core.random_delay import delayed_task_layers, draw_randomness
from repro.experiments.gates import Gate, evaluate, format_value

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BENCH_ENGINES",
    "BENCH_FAMILIES",
    "DEFAULT_BENCH_CELLS",
    "GATES",
    "V5_SETUP_S",
    "V5_CASE_CHECKSUMS",
    "bench_cases",
    "construction_bench",
    "evaluate_gates",
    "gate_table",
    "run_bench",
    "validate_bench",
    "write_bench",
]

#: Bump when the report layout changes; the filename tracks it
#: (``BENCH_<version>.json``) so stale baselines cannot be misread.
BENCH_SCHEMA_VERSION = 8

#: Engines every bench case times and cross-checks.
BENCH_ENGINES = ("heap", "vector")

#: Mesh size when ``REPRO_BENCH_CELLS`` is unset.
DEFAULT_BENCH_CELLS = 2000

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


def _bench_cells(smoke: bool, cells: int | None) -> int:
    """The mesh size a run builds: ``cells``, else ``REPRO_BENCH_CELLS``,
    else :data:`DEFAULT_BENCH_CELLS`; at most 120 in smoke mode."""
    if cells is None:
        cells = int(os.environ.get("REPRO_BENCH_CELLS", DEFAULT_BENCH_CELLS))
    return min(cells, 120) if smoke else cells


def _mesh_instance_timed(cells: int, k: int) -> tuple[object, dict]:
    """Build (or cache-load) one mesh-family instance with phase timings.

    ``phases`` is :func:`repro.experiments.runner.load_or_build`'s
    ``mesh_s``/``build_s``/``cache_s`` split; a cache hit skips the build
    (``build_s == 0``).  Either way the levels arrive pre-materialised.
    """
    from repro.experiments.runner import load_or_build

    phases: dict = {}
    return load_or_build("tetonly", cells, 0, k, phases=phases)[0], phases


def _family_instance_timed(builder) -> tuple[object, dict]:
    """Build one synthetic-family instance; levels warmed inside ``build_s``."""
    with obs.timed("instance.build", cat="build") as t_build:
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
        with obs.timed(
            "bench.engine_repeat", cat="bench",
            args_fn=lambda: {"engine": engine},
        ) as t:
            schedule = list_schedule(
                inst, m, assignment, priority=priority, engine=engine
            )
        best = min(best, t.elapsed)
    return best, schedule


def construction_bench(smoke: bool = False, cells: int | None = None) -> dict:
    """Cold-vs-warm instance construction through the build cache.

    Cold = mesh generation + batched DAG build + cache store; warm = a
    disk hit on the same content key, both through
    :func:`repro.experiments.runner.load_or_build` in a throwaway cache
    directory (the caller's ``REPRO_CACHE_DIR``
    is untouched).  The loaded instance's exported arrays are compared
    byte-for-byte against the cold build's — the cache must be an exact
    substitute, not an approximation — and the hit is confirmed via the
    :data:`repro.cache.COUNTERS` delta so a silent rebuild cannot
    masquerade as a warm load.
    """
    import tempfile

    from repro import cache as build_cache
    from repro.experiments.runner import load_or_build

    cells = _bench_cells(smoke, cells)
    k = 8 if smoke else 24
    with tempfile.TemporaryDirectory(prefix="repro_bench_cache_") as tmp:
        with build_cache.override_dir(tmp):
            before_hits = build_cache.COUNTERS["hit"]
            with obs.timed("bench.construction_cold", cat="bench") as t_cold:
                inst, _ = load_or_build("tetonly", cells, 0, k)
            with obs.timed("bench.construction_warm", cat="bench") as t_warm:
                warm, _ = load_or_build("tetonly", cells, 0, k)
            hits = build_cache.COUNTERS["hit"] - before_hits
            cold_meta, cold_arrays = inst.export_arrays()
            warm_meta, warm_arrays = warm.export_arrays()
            identical = (
                cold_meta == warm_meta
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


def _bench_case(case: dict, seed: int, repeats: int) -> dict:
    """Build, set up, warm and time one case; returns its report entry.

    Each ``phases`` value is one ``obs.timed`` interval's ``.elapsed``.
    """
    inst, build_phases = case["build"]()
    m = case["m"]
    with obs.timed("bench.setup", cat="bench") as t_setup:
        delays, assignment = draw_randomness(inst, m, seed)
        priority = delayed_task_layers(inst, delays)
    # Warm only the structural caches shared by every engine (CSR,
    # in-degrees, level structure); engine-private caches are built
    # by each engine's untimed warm-up run in ``_time_engine``.
    with obs.timed("bench.warm", cat="bench") as t_warm:
        union = inst.union_dag()
        union.successor_csr()
        union.indegree()
        union.num_levels()

    engines = {}
    schedules = {}
    for engine in BENCH_ENGINES:
        wall, sched = _time_engine(inst, m, assignment, priority, engine, repeats)
        engines[engine] = {
            "wall_time_s": wall,
            "tasks_per_sec": inst.n_tasks / wall if wall > 0 else 0.0,
        }
        schedules[engine] = sched
    for engine in BENCH_ENGINES[1:]:
        if not np.array_equal(schedules["heap"].start, schedules[engine].start):
            raise AssertionError(
                f"heap and {engine} engines disagree on bench family "
                f"{case['family']!r} — benchmark aborted"
            )
    start = np.ascontiguousarray(schedules["heap"].start, dtype=np.int64)
    return {
        "family": case["family"],
        "n_tasks": int(inst.n_tasks),
        "m": int(m),
        "k": int(case["k"]),
        "makespan": int(schedules["heap"].makespan),
        "checksum": int(zlib.crc32(start.tobytes())),
        "engines": engines,
        "auto_engine": resolve_engine("auto", priority, inst, m, assignment),
        "speedup": engines["heap"]["wall_time_s"]
        / max(engines["vector"]["wall_time_s"], 1e-12),
        "phases": {
            **build_phases,
            "setup_s": t_setup.elapsed,
            "warm_s": t_warm.elapsed,
        },
    }


def run_bench(
    smoke: bool = False,
    cells: int | None = None,
    repeats: int | None = None,
    seed: int = 0,
    families: list | tuple | None = None,
) -> dict:
    """Run the full benchmark grid; returns the schema-v8 report dict.

    Each case builds its instance through the timed construction
    phases, then times all of :data:`BENCH_ENGINES` on Algorithm 2's
    delayed-level priorities (best wall time over ``repeats`` runs,
    after one untimed warm-up run per engine) and cross-checks that the
    schedules are identical — a benchmark that silently compared
    different schedules would be meaningless.  The timed ``warm_s``
    phase covers only the structural caches every engine shares.  The
    ``construction`` section then times one cold-vs-warm build through
    the content-addressed cache.  ``cells`` records the mesh size every
    section built; ``cpu_count`` is context only, no gate reads it.

    ``families`` (a subset of :data:`BENCH_FAMILIES`) produces a
    *partial* report for hot-path iteration: only the selected case
    families run, the construction section is ``None``, and
    ``partial: true`` is stamped so the gates that read it do not apply.
    """
    if repeats is None:
        repeats = 1 if smoke else 5
    cells = _bench_cells(smoke, cells)
    partial = families is not None
    cases_out = []
    for case in bench_cases(smoke=smoke, cells=cells, families=families):
        with obs.span(
            "bench.case", cat="bench",
            args_fn=lambda: {"family": case["family"]},
        ):
            cases_out.append(_bench_case(case, seed, repeats))
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
        "construction": (
            None if partial else construction_bench(smoke=smoke, cells=cells)
        ),
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
    Gate("construction_cache_hit", "construction.{cold_s,warm_s,cache_hits}", ">",
         0, "full", "both loads were timed and the warm one is a counted hit"),
    Gate("construction_byte_identical", "construction.byte_identical", "==", True,
         "full", "the cache hit loads back the cold build's arrays"),
    Gate("construction_speedup", "construction.speedup", ">=", 5.0,
         "full, not smoke", "a cache hit loads >= 5x faster than a build"),
)


def _out_of_scope(report: dict) -> dict:
    """Why each applies-when name excludes ``report`` (``""``: it applies).

    ``reference`` is the fidelity the frozen numbers were measured at,
    partial reports included.
    """
    partial = "partial report" if report.get("partial") else ""
    smoke = "smoke report" if report.get("smoke") else ""
    off_reference = next((
        f"{key} {report.get(key)} != {want}"
        for key, want in (("cells", DEFAULT_BENCH_CELLS), ("seed", 0))
        if report.get(key) != want
    ), "")
    return {
        "always": "",
        "full": partial,
        "full, not smoke": partial or smoke,
        "reference": smoke or off_reference,
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
