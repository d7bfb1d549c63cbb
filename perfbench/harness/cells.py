"""One grid cell, computed through the public API with a span per layer.

:func:`run_cell` makes the same calls, with the same seed derivation, as
``repro.experiments.runner.run_cell_on``; it only splits the summary
step so validation, C1 and C2 are timed on their own.  The self-test
checks that its summaries equal ``run_cell_on``'s.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.analysis.metrics import summarize_schedule
from repro.comm.cost import c2_cost, interprocessor_edges
from repro.core.assignment import block_assignment, random_cell_assignment
from repro.core.list_scheduler import list_schedule, resolve_engine
from repro.core.random_delay import delayed_task_layers, draw_delays
from repro.heuristics.registry import get_algorithm
from repro.util.rng import spawn_rngs

#: The Algorithm 2 registry entry, re-run as its parts in traced runs.
ALG2 = "random_delay_priority"


@dataclass
class Cell:
    algorithm: str
    m: int
    seed: int
    blocks: np.ndarray | None
    schedule: object
    summary: object


class Faults:
    """Fault injection for the self-test: each fault fires once."""

    def __init__(self, names=()):
        self.pending = set(names)

    def take(self, name: str) -> bool:
        if name in self.pending:
            self.pending.discard(name)
            return True
        return False


def run_cell(tr, inst, algorithm: str, m: int, seed: int,
             blocks: np.ndarray | None = None,
             faults: Faults | None = None) -> Cell:
    """Schedule, validate and summarise one (algorithm, m, blocks, seed) cell."""
    rngs = spawn_rngs(seed, 2)
    assignment = None
    if blocks is not None:
        with tr.span("core.assign"):
            assignment = block_assignment(blocks, m, seed=rngs[0])
    with tr.span("sched." + algorithm):
        sched = get_algorithm(algorithm)(
            inst, m, seed=rngs[1], assignment=assignment, engine="auto"
        )
    if faults is not None and faults.take("bad_schedule"):
        # Every task at step 0: breaks processor capacity.
        sched.start = np.zeros_like(sched.start)
    with tr.span("core.validate"):
        sched.validate()
    with tr.span("comm.c1"):
        c1 = interprocessor_edges(inst, sched.assignment)
    with tr.span("comm.c2"):
        c2 = c2_cost(sched)
    with tr.span("analysis.summary"):
        base = summarize_schedule(sched, with_comm=False)
        total_edges = sum(g.num_edges for g in inst.dags)
        summary = replace(
            base, c1=c1, c2=c2,
            c1_fraction=c1 / total_edges if total_edges else 0.0,
        )
    return Cell(algorithm, m, seed, blocks, sched, summary)


def alg2_parts(tr, inst, cell: Cell) -> str:
    """Re-run an Algorithm 2 cell as its parts; raise if it differs.

    ``draw_delays`` + ``delayed_task_layers`` (``core.priority``), the
    assignment (``core.assign``) and ``list_schedule(engine="auto")``
    (``core.kernel``), consuming the seed streams in the registry
    call's order.  Returns the engine ``auto`` resolved to.
    """
    rngs = spawn_rngs(cell.seed, 2)
    rng = rngs[1]
    with tr.span("check.alg2"):
        assignment = None
        if cell.blocks is not None:
            with tr.span("core.assign"):
                assignment = block_assignment(cell.blocks, cell.m, seed=rngs[0])
        with tr.span("core.priority"):
            delays = draw_delays(inst.k, rng)
        if assignment is None:
            with tr.span("core.assign"):
                assignment = random_cell_assignment(inst.n_cells, cell.m, rng)
        with tr.span("core.priority"):
            gamma = delayed_task_layers(inst, delays)
        engine = resolve_engine("auto", gamma, inst, cell.m)
        with tr.span("core.kernel", engine=engine):
            sched = list_schedule(inst, cell.m, assignment, priority=gamma,
                                  engine="auto")
    if not (np.array_equal(sched.start, cell.schedule.start)
            and np.array_equal(sched.assignment, cell.schedule.assignment)):
        raise AssertionError(
            "Algorithm 2 run as draw_delays + delayed_task_layers + "
            "list_schedule differs from the registry call"
        )
    return engine
