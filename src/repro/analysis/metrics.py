"""Schedule quality metrics used throughout the experiment harness.

The paper's plots normalise makespan by the average-load lower bound
``nk/m``; :func:`approx_ratio` reproduces that, while
:func:`summarize_schedule` collects everything one experiment row needs
(makespan, ratio, C1, C2, idle fraction).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.comm.cost import c2_cost, interprocessor_edges
from repro.core.lower_bounds import average_load_lb, combined_lower_bound
from repro.core.schedule import Schedule

__all__ = [
    "approx_ratio",
    "speedup",
    "efficiency",
    "ScheduleSummary",
    "summarize_schedule",
    "lemma2_max_copies_per_layer",
    "lemma3_max_tasks_per_proc_layer",
]


def approx_ratio(schedule: Schedule, bound: str = "avg_load") -> float:
    """Makespan over a lower bound on OPT (>= true approximation factor).

    ``bound="avg_load"`` uses ``nk/m`` (the paper's choice);
    ``bound="combined"`` uses ``max(nk/m, k, critical path)``.
    """
    if bound == "avg_load":
        lb = average_load_lb(schedule.instance, schedule.m)
    elif bound == "combined":
        lb = combined_lower_bound(schedule.instance, schedule.m)
    else:
        raise ValueError(f"unknown bound {bound!r}")
    if lb == 0:
        return 1.0
    return schedule.makespan / lb


def speedup(schedule: Schedule) -> float:
    """Serial time ``n*k`` over the parallel makespan."""
    if schedule.makespan == 0:
        return 1.0
    return schedule.instance.n_tasks / schedule.makespan


def efficiency(schedule: Schedule) -> float:
    """Speedup per processor (1.0 = perfect linear scaling)."""
    return speedup(schedule) / schedule.m


@dataclass
class ScheduleSummary:
    """One experiment row: identity, quality, and communication costs."""

    algorithm: str
    mesh: str
    n_cells: int
    k: int
    m: int
    makespan: int
    lower_bound: int
    ratio: float
    c1: int
    c1_fraction: float
    c2: int
    idle_fraction: float

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def summarize_schedule(schedule: Schedule, with_comm: bool = True) -> ScheduleSummary:
    """Collect the standard metrics for one schedule."""
    inst = schedule.instance
    lb = average_load_lb(inst, schedule.m)
    total_edges = sum(g.num_edges for g in inst.dags)
    if with_comm:
        with obs.span("comm.c1", cat="comm"):
            c1 = interprocessor_edges(inst, schedule.assignment)
        with obs.span("comm.c2", cat="comm"):
            c2 = c2_cost(schedule)
    else:
        c1 = c2 = 0
    return ScheduleSummary(
        algorithm=str(schedule.meta.get("algorithm", "?")),
        mesh=inst.name,
        n_cells=inst.n_cells,
        k=inst.k,
        m=schedule.m,
        makespan=schedule.makespan,
        lower_bound=lb,
        ratio=schedule.makespan / lb if lb else 1.0,
        c1=c1,
        c1_fraction=c1 / total_edges if total_edges else 0.0,
        c2=c2,
        idle_fraction=schedule.idle_fraction(),
    )


def lemma2_max_copies_per_layer(inst, delays: np.ndarray) -> int:
    """Empirical Lemma 2 quantity: max copies of any cell in one layer.

    Lemma 2 shows this is ``O(log n)`` w.h.p. under random delays; the
    theory-validation experiment (E8) measures it directly.
    """
    from repro.core.random_delay import delayed_task_layers

    layers = delayed_task_layers(inst, delays)
    cells = np.tile(np.arange(inst.n_cells, dtype=np.int64), inst.k)
    if layers.size == 0:
        return 0
    key = layers * inst.n_cells + cells
    _, counts = np.unique(key, return_counts=True)
    return int(counts.max())


def lemma3_max_tasks_per_proc_layer(
    inst, delays: np.ndarray, assignment: np.ndarray, m: int
) -> int:
    """Empirical Lemma 3 quantity: max tasks of one layer on one processor."""
    from repro.core.layered import layer_makespans
    from repro.core.random_delay import delayed_task_layers

    layers = delayed_task_layers(inst, delays)
    proc = np.tile(np.asarray(assignment), inst.k)
    per_layer = layer_makespans(layers, proc, m)
    return int(per_layer.max()) if per_layer.size else 0


def theorem3_layer_times(inst, m: int, seed=None) -> dict:
    """Empirical Theorem 3 quantities for one Algorithm 3 run.

    Theorem 3 bounds the expected time ``Y_t`` to process layer
    ``L''_t`` of the *preprocessed* combined DAG by
    ``O(mu_t / m + log m * log log log m)``.  Returns the observed
    worst-case "excess" ``max_t (Y_t - |L''_t|/m)`` alongside the
    additive term ``rho = log m * log log log m`` it must be O() of,
    plus the run's totals.
    """
    from repro.core.improved import preprocess_levels
    from repro.core.layered import layer_makespans
    from repro.core.random_delay import draw_randomness

    pre = preprocess_levels(inst, m)
    delays, assignment = draw_randomness(inst, m, seed)
    layers = pre + np.repeat(delays, inst.n_cells)
    proc = np.tile(assignment, inst.k)
    y = layer_makespans(layers, proc, m).astype(np.float64)
    sizes = np.bincount(layers, minlength=y.size).astype(np.float64)
    excess = y - sizes / m
    # rho = log m * log log log m; the triple log only bites for huge m,
    # floor its argument at e for small processor counts.
    lll = np.log(max(np.log(max(np.log(max(m, 3)), np.e)), np.e))
    rho = float(np.log(max(m, 2)) * lll)
    return {
        "max_excess": float(excess.max()) if excess.size else 0.0,
        "mean_excess": float(excess.mean()) if excess.size else 0.0,
        "rho": rho,
        "makespan": float(y.sum()),
        "n_layers": int(y.size),
    }
