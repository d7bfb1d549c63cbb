"""The four workloads: what each sets up, times and checks.

Every workload takes its seed from the command line and derives its
varying inputs from it; ``src/repro`` receives only the generated inputs.
``perfbench/spec.json`` records why each workload exists and which
layers it stresses or bypasses.

A workload runs as: ``setup`` repeated at least ``setup_reps`` times and
for at least a few seconds (each timed; ``setup_s`` is the fastest, so
neither the first repetition's lazy imports nor a busy moment of the
host decides it), ``prepare`` (untimed:
references and warm-up), then the timed phase (``timed``, or
``timed_traced`` under ``--trace 1``), then ``finish`` (post-run checks).
The closed loops repeat one fixed op list pass after pass, so every op
input is timed several times (see ``Ledger.kept_latencies``).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field, replace
from functools import partial
from types import SimpleNamespace

from repro.experiments.presets import CI_SCALE
from repro.experiments.runner import clear_caches, get_instance, run_grid
from repro.instances import INSTANCE_FAMILIES, make_instance
from repro.mesh import make_mesh
from repro.parallel import DispatchStats, grid_cells, list_orphan_segments
from repro.partition.multilevel import partition_mesh_blocks
from repro.sweeps.dag_builder import build_instance_batched
from repro.sweeps.directions import directions_for_mesh

from harness.cells import ALG2, alg2_parts, run_cell
from harness.ledger import vmhwm_mb
from harness.metrics import GRID_ALGORITHMS

now = time.perf_counter

#: Where sockets and trace files go, relative to the checkout root.
OUT_DIR = ".perfbench_out"

#: Seed stride between ``--seed`` values, so derived seeds never collide.
SEED_STRIDE = 100_003

#: Every ``--seed`` schedules on the same meshes, as the paper reuses one
#: mesh across its grid; ``--seed`` varies the scheduling randomness.
MESH_SEED = 0


@dataclass
class OpOut:
    """What one timed op produced."""

    summaries: list
    cells: int
    detail: list = field(default_factory=list)
    inst: object = None


def closed_loop(w, tr, ledger, seconds: float, traced=None) -> None:
    """Run whole passes of ``w.ops()`` back to back until ``seconds`` pass.

    Only whole passes run, and every pass repeats the same ops, so every
    run times the same mix of cells and each op's position is its key.
    With a ``traced`` ledger, passes alternate between untraced (booked in
    ``ledger``) and traced (booked in ``traced``): the host's speed swings
    over seconds, and alternating puts its slow moments on both sides
    alike, so their ratio gives the tracing cost.
    """
    sides = [(False, ledger)] if traced is None else [(False, ledger), (True, traced)]
    start = now()
    p = 0
    while p < len(sides) or now() - start < seconds:
        tr.enabled, book = sides[p % len(sides)]
        first_pass = p < len(sides)
        for j, (kind, fn) in enumerate(w.ops()):
            t = now()
            try:
                with tr.op(kind):
                    out = fn(tr)
            except Exception as exc:  # booked as a failed op
                book.fail(kind, exc)
                continue
            book.ok(j, now() - t, out.summaries, out.cells, record_digest=first_pass)
            if tr.enabled:
                try:
                    w.traced_check(tr, out, first_pass=first_pass)
                except Exception as exc:
                    book.fail(kind + " check", exc)
        p += 1


class Workload:
    name = ""
    setup_reps = 3
    #: Seconds set-up repeats for, at least (full scale): the host's slow
    #: moments last seconds, so the fastest of repetitions spread over a
    #: few seconds is steadier than the fastest of a quick burst.
    setup_window_s = 5.0

    def __init__(self, root: str, seed: int, scale: str, faults) -> None:
        self.root = root
        self.seed = seed
        self.scale = scale
        self.faults = faults

    def setup(self, tr) -> None:
        raise NotImplementedError

    def discard_setup(self, ledger) -> None:
        """Release a set-up repetition that the timed phase will not use."""

    def prepare(self, tr, ledger) -> None:
        """Untimed work between set-up and the timed phase."""

    def ops(self) -> list:
        """The ``(kind, fn)`` ops of one pass; every pass runs the same."""
        raise NotImplementedError

    def timed(self, tr, ledger, seconds: float) -> None:
        closed_loop(self, tr, ledger, seconds)

    def timed_traced(self, tr, untraced, traced, seconds: float) -> None:
        """Untraced and traced timing in one ``seconds`` (``--trace 1``)."""
        closed_loop(self, tr, untraced, seconds, traced)

    def traced_check(self, tr, out: OpOut, first_pass: bool) -> None:
        """Re-run Algorithm 2 cells as their parts (traced runs only)."""
        for cell in out.detail:
            if cell.algorithm == ALG2:
                engine = alg2_parts(tr, out.inst, cell)
                if first_pass:
                    tr.count("core.engine." + engine)

    def finish(self, ledger) -> None:
        orphans = list_orphan_segments()
        if orphans:
            ledger.fail("shm", f"orphan shared-memory segments: {orphans}")

    def peak_rss_mb(self) -> float:
        return vmhwm_mb()

    def unattributed(self, tr) -> float:
        """Share of timed op wall time no layer span covers."""
        kids = tr.children()
        total = covered = 0.0
        for i, s in enumerate(tr.spans):
            if s.name == "op" and s.phase == "timed":
                total += s.dur
                covered += tr.covered(i, kids)
        return (total - covered) / total if total else 0.0

    def layer_extras(self, tr) -> dict:
        return {}

    def close(self) -> None:
        """Stop anything still running (error paths)."""


class GridPaper(Workload):
    """Serial closed loop over the paper's algorithm x m x block-size grid."""

    name = "grid_paper"
    SIZES = {
        "full": dict(cells=4000, k=24, m=(32, 128, 512), blocks=(1, 64)),
        "tiny": dict(cells=300, k=8, m=(4, 16), blocks=(1, 16)),
    }

    def setup(self, tr) -> None:
        size = self.SIZES[self.scale]
        with tr.span("mesh.generate"):
            mesh = make_mesh("tetonly", target_cells=size["cells"], seed=MESH_SEED)
        with tr.span("sweeps.build"):
            self.inst = build_instance_batched(
                mesh, directions_for_mesh(mesh.dim, size["k"])
            )
        self.blocks = {1: None}
        for b in size["blocks"]:
            if b > 1:
                with tr.span("partition.blocks"):
                    self.blocks[b] = partition_mesh_blocks(
                        mesh.n_cells, mesh.adjacency, b, seed=MESH_SEED
                    )

    def ops(self) -> list:
        size = self.SIZES[self.scale]
        cells = [(alg, m, b) for alg in GRID_ALGORITHMS
                 for b in size["blocks"] for m in size["m"]]
        # One seed per cell: independent draws across the grid keep
        # ratio_geomean close to its mean over seeds.
        base = self.seed * SEED_STRIDE
        return [
            (alg, partial(self._cell, alg, m, self.blocks[b], base + j))
            for j, (alg, m, b) in enumerate(cells)
        ]

    def _cell(self, alg, m, blocks, seed, tr) -> OpOut:
        cell = run_cell(tr, self.inst, alg, m, seed, blocks, self.faults)
        return OpOut([cell.summary], 1, [cell], self.inst)


class Families(Workload):
    """Serial closed loop; each op builds a fresh non-geometric instance."""

    name = "families"
    #: The algorithm set of the ``repro families`` command.
    ALGORITHMS = ("random_delay", "random_delay_priority", "level", "dfds")
    FAMILIES = tuple(sorted(INSTANCE_FAMILIES))
    SIZES = {"full": dict(n=1024, k=8, m=64), "tiny": dict(n=64, k=4, m=8)}

    def setup(self, tr) -> None:
        # Construction happens inside every op, so the op list (one fresh
        # seed per family) is all a user sets up before the first result.
        base = self.seed * SEED_STRIDE
        self.op_list = [
            (fam, partial(self._op, fam, base + j, self.faults))
            for j, fam in enumerate(self.FAMILIES)
        ]

    def prepare(self, tr, ledger) -> None:
        # One untimed warm-up pass, with seeds the timed passes never use.
        base = self.seed * SEED_STRIDE + SEED_STRIDE // 2
        for j, fam in enumerate(self.FAMILIES):
            self._op(fam, base + j, None, tr)

    def ops(self) -> list:
        return self.op_list

    def _op(self, fam, seed, faults, tr) -> OpOut:
        size = self.SIZES[self.scale]
        with tr.span("instances.build"):
            inst = make_instance(fam, n=size["n"], k=size["k"], seed=seed)
        with tr.span("core.levels"):
            inst.warm_levels()
        cells = [
            run_cell(tr, inst, alg, size["m"], seed, None, faults)
            for alg in self.ALGORITHMS
        ]
        return OpOut([c.summary for c in cells], len(cells), cells, inst)


class FiguresPar(Workload):
    """Closed loop of ``run_grid(CI_SCALE["fig2c"], workers=2)`` calls.

    Each call spawns a fresh worker pool, so the pool lifecycle is inside
    every op.  Set-up is the parent's instance build only.
    """

    name = "figures_par"
    WORKERS = 2

    def __init__(self, root, seed, scale, faults) -> None:
        super().__init__(root, seed, scale, faults)
        config = replace(CI_SCALE["fig2c"], mesh_seed=MESH_SEED,
                         seeds=(2 * seed, 2 * seed + 1), workers=1)
        if scale == "tiny":
            config = replace(config, target_cells=300)
        self.config = config
        self.n_cells = len(grid_cells(config))
        self.stats: list = []

    def setup(self, tr) -> None:
        clear_caches()
        with tr.span("experiments.get_instance"):
            get_instance(self.config)

    def prepare(self, tr, ledger) -> None:
        if tr.enabled:
            # get_instance hides its two layers; time them once by hand.
            cfg = self.config
            with tr.span("setup.breakdown"):
                with tr.span("mesh.generate"):
                    mesh = make_mesh(cfg.mesh, target_cells=cfg.target_cells,
                                     seed=cfg.mesh_seed)
                with tr.span("sweeps.build"):
                    build_instance_batched(mesh, directions_for_mesh(mesh.dim, cfg.k))
        self.reference = run_grid(self.config, workers=1)
        # One untimed call: the first pool spawn of a process also pays
        # cold page-cache and import costs that later calls do not.
        if run_grid(self.config, workers=self.WORKERS) != self.reference:
            ledger.fail("warm-up run_grid", "rows differ from the serial run_grid")

    def ops(self) -> list:
        return [("run_grid", self._op)]

    def _op(self, tr) -> OpOut:
        stats = DispatchStats()
        with tr.span("parallel.grid"):
            rows = run_grid(self.config, workers=self.WORKERS, stats=stats)
        self.stats.append((tr.enabled, stats))
        if rows != self.reference:
            raise AssertionError("workers=2 rows differ from the serial run_grid")
        return OpOut(
            [SimpleNamespace(ratio=r["ratio"], c1_fraction=r["c1_fraction"],
                             makespan=r["makespan"]) for r in rows],
            self.n_cells,
        )

    def peak_rss_mb(self) -> float:
        return max([vmhwm_mb()] + [s.peak_worker_rss_mb for _, s in self.stats])

    def unattributed(self, tr) -> float:
        # run_grid has no benchmark-visible children; its dispatcher
        # phases (DispatchStats) are the layer spans here.
        walls = [s.dur for s in tr.spans
                 if s.phase == "timed" and s.name == "parallel.grid"]
        traced = [s for on, s in self.stats if on]
        covered = sum(s.warm_s + s.plan_s + s.publish_s + s.dispatch_s
                      for s in traced)
        return 1.0 - covered / sum(walls) if walls else 0.0

    def layer_extras(self, tr) -> dict:
        traced = [s for on, s in self.stats if on]
        walls = [s.dur for s in tr.spans
                 if s.phase == "timed" and s.name == "parallel.grid"]
        serial = []
        for _ in range(3):
            t = now()
            run_grid(self.config, workers=1)
            serial.append(now() - t)
        base = statistics.median(serial)
        return {
            "parallel.publish_s": statistics.fmean(s.publish_s for s in traced),
            "parallel.dispatch_s": statistics.fmean(s.dispatch_s for s in traced),
            "parallel.wait_s": statistics.fmean(s.wait_s for s in traced),
            "parallel.chunks": traced[0].n_chunks,
            "parallel.serial_grid_s": base,
            "parallel.speedup": base / statistics.median(walls),
            "parallel.peak_worker_rss_mb": max(s.peak_worker_rss_mb
                                               for _, s in self.stats),
        }
