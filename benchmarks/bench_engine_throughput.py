"""E21 — scheduler engine throughput (the "almost linear time" claim).

Theorem 1 notes the algorithms run in time almost linear in the schedule
length; Theorem 2 gives O((mk + nk) log nk) for the list scheduler.
These are the only benchmarks here that measure *our implementation's*
speed rather than schedule quality: tasks-per-second of each engine and
an empirical scaling check (doubling the instance should roughly double
the runtime, not quadruple it).
"""

from benchmarks.conftest import run_once
from repro.core import (
    random_delay_priority_schedule,
    random_delay_schedule,
)
from repro.core.list_scheduler import list_schedule_unassigned
from repro.experiments import format_table
from repro.experiments.configs import ExperimentConfig
from repro.experiments.runner import get_instance
from repro.util.timing import now

SIZES = (1000, 2000, 4000)
M = 32


def _measure():
    rows = []
    for cells in SIZES:
        cfg = ExperimentConfig(mesh="tetonly", target_cells=cells, k=8)
        inst = get_instance(cfg)
        row = {"n_tasks": inst.n_tasks}
        for label, fn in (
            ("alg1_vectorised", lambda: random_delay_schedule(inst, M, seed=0)),
            ("alg2_list", lambda: random_delay_priority_schedule(inst, M, seed=0)),
            ("graham_unassigned", lambda: list_schedule_unassigned(inst, M)),
        ):
            # Best of three: wall-clock noise (GC, cache state left by
            # other benches) otherwise dominates single measurements.
            best = float("inf")
            for _ in range(3):
                t0 = now()
                fn()
                best = min(best, now() - t0)
            row[label + "_tasks_per_s"] = int(inst.n_tasks / best)
        rows.append(row)
    return rows


def test_engine_throughput(benchmark, show):
    rows = run_once(benchmark, _measure)
    show(
        format_table(
            rows,
            [
                "n_tasks",
                "alg1_vectorised_tasks_per_s",
                "alg2_list_tasks_per_s",
                "graham_unassigned_tasks_per_s",
            ],
            title=f"E21 — engine throughput, tasks/second (tetonly-like, k=8, m={M})",
        )
    )
    # Near-linear scaling: throughput must not collapse as N quadruples.
    # (Allow 4x degradation for cache effects and log factors — a
    # quadratic engine would degrade ~16x over this range.)
    for key in (
        "alg1_vectorised_tasks_per_s",
        "alg2_list_tasks_per_s",
        "graham_unassigned_tasks_per_s",
    ):
        first, last = rows[0][key], rows[-1][key]
        assert last > first / 4.0, f"{key} degraded superlinearly"
    # The vectorised layered engine is the fastest of the three.
    for row in rows:
        assert (
            row["alg1_vectorised_tasks_per_s"]
            >= row["alg2_list_tasks_per_s"]
        )
