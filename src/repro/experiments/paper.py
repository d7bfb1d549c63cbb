"""The paper's Section 5 figures as one table (:data:`FIGURES`).

Each :class:`Figure` row names the grid behind one paper artifact and
the series table it prints; :func:`run_figure` runs a row and returns
``(rows, text)``.  The default scale is a 2000-cell mesh so every figure
regenerates in seconds; ``scale="paper"`` applies the row's ``paper``
overrides: the real mesh sizes (31k–118k cells) and the paper's block
sizes, where a figure takes seconds to a minute.

Shape expectations (what reproduction success means; absolute numbers
differ because the meshes are synthetic stand-ins — see DESIGN.md):

* Fig. 2(a): block assignment costs a little makespan over per-cell.
* Fig. 2(b): block assignment slashes C1; C2 is far below C1 and barely
  moves.
* Fig. 2(c): priorities beat plain Random Delay, growing with m.
* Fig. 3(a–c): all heuristics tie at small m; delays help at large m.
* Headline: makespan <= 3 nk/m everywhere the paper claims it.

At the default scale the faithful quantity is the *blocks-per-processor
ratio*, not the block size: the paper's 31k cells / 256-cell blocks /
128 processors give ~1 block per processor at the top of Fig. 2(a)'s
sweep, and Fig. 3(a)'s 61k cells / 64-cell blocks ~8 per processor at
its largest m.  So the default block sizes shrink with the mesh.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro import obs
from repro.experiments.configs import ExperimentConfig
from repro.experiments.report import format_series, format_table
from repro.experiments.runner import run_grid

__all__ = ["Figure", "FIGURES", "run_figure"]

_SMALL_M = (2, 4, 8, 16, 32, 64)


@dataclass(frozen=True)
class Figure:
    """One paper artifact: the grid it runs and the tables it prints.

    The grid is every ``meshes`` x ``k_values`` pair, each an
    :class:`ExperimentConfig` over the remaining fields.  Each
    ``(field, title)`` in ``plots`` prints one series table of that row
    field against m, one column per ``series`` (a ``str.format`` template
    over a result row); ``{block}`` in a title is the first block size.
    ``worst_ratio`` prints the per-mesh worst-ratio table instead.
    ``paper`` holds the fields that differ at the paper's scale.
    """

    meshes: tuple
    k_values: tuple
    algorithms: tuple
    block_sizes: tuple
    m_values: tuple
    plots: tuple
    paper: dict
    series: str = "{algorithm},k={k}"
    seeds: tuple = (0, 1, 2)
    target_cells: int = 2000
    with_comm: bool = False
    worst_ratio: bool = False


_FIG2A_PAPER = dict(target_cells=31481, m_values=(2, 8, 32, 128),
                    block_sizes=(1, 64, 256), seeds=(0,))

FIGURES: dict[str, Figure] = {
    "fig2a": Figure(
        meshes=("tetonly",), k_values=(24,), algorithms=("random_delay",),
        block_sizes=(1, 16, 64), m_values=(2, 4, 8, 16, 32),
        series="block={block_size}",
        plots=(("makespan", "Fig 2(a) — Random Delay makespan vs m "
                            "(tetonly-like, k=24)"),),
        paper=_FIG2A_PAPER,
    ),
    "fig2b": Figure(
        meshes=("tetonly",), k_values=(24,), algorithms=("random_delay",),
        block_sizes=(1, 16, 64), m_values=(2, 4, 8, 16, 32),
        series="block={block_size}", with_comm=True,
        plots=(("c1", "Fig 2(b) — interprocessor edges C1 vs m "
                      "(tetonly-like, k=24)"),
               ("c2", "Fig 2(b) — max-send cost C2 vs m (tetonly-like, k=24)")),
        paper=_FIG2A_PAPER,
    ),
    "fig2c": Figure(
        meshes=("long",), k_values=(8, 24),
        algorithms=("random_delay", "random_delay_priority"),
        block_sizes=(1,), m_values=(8, 16, 32, 64, 128, 256),
        plots=(("ratio", "Fig 2(c) — makespan / (nk/m): Random Delays vs "
                         "+Priorities (long-like)"),),
        paper=dict(target_cells=61737, k_values=(8,), m_values=(32, 128, 512),
                   seeds=(0,)),
    ),
    "fig3a": Figure(
        meshes=("long",), k_values=(8, 24),
        algorithms=("level", "random_delay_priority"),
        block_sizes=(16,), m_values=_SMALL_M,
        plots=(("ratio", "Fig 3(a) — ratio to nk/m: level vs random delays "
                         "(long-like, block {block})"),),
        paper=dict(target_cells=61737, k_values=(8,), block_sizes=(64,),
                   m_values=(32, 128), seeds=(0,)),
    ),
    "fig3b": Figure(
        meshes=("tetonly",), k_values=(8, 24),
        algorithms=("random_delay_priority", "descendant", "descendant_delays"),
        block_sizes=(16,), m_values=_SMALL_M,
        plots=(("ratio", "Fig 3(b) — ratio to nk/m: descendant ± delays "
                         "(tetonly-like, block {block})"),),
        paper=dict(target_cells=31481, k_values=(8,), block_sizes=(256,),
                   m_values=(32, 128), seeds=(0,)),
    ),
    "fig3c": Figure(
        meshes=("well_logging",), k_values=(8, 24),
        algorithms=("random_delay_priority", "dfds", "dfds_delays"),
        block_sizes=(16,), m_values=_SMALL_M,
        plots=(("ratio", "Fig 3(c) — ratio to nk/m: DFDS ± delays "
                         "(well_logging-like, block {block})"),),
        paper=dict(target_cells=43012, k_values=(8,), block_sizes=(128,),
                   m_values=(32, 128), seeds=(0,)),
    ),
    "headline": Figure(
        meshes=("tetonly", "well_logging", "long", "prismtet"),
        k_values=(8, 24), algorithms=("random_delay_priority",),
        block_sizes=(1, 16), m_values=(4, 16, 64, 128), seeds=(0, 1),
        worst_ratio=True,
        plots=(("ratio_max", "Headline — Algorithm 2 makespan vs 3*nk/m bound"),),
        paper=dict(meshes=("prismtet",), target_cells=118211, k_values=(8,),
                   block_sizes=(1,), m_values=(128,), seeds=(0,)),
    ),
}


def run_figure(name: str, scale: str = "default", workers: int | None = None,
               **overrides):
    """Run figure ``name`` at ``scale`` ("default" or "paper").

    ``overrides`` replace :class:`Figure` fields (``target_cells=``,
    ``m_values=``, ...) after the scale is applied.  Returns the result
    rows and the figure-shaped text.
    """
    if scale not in ("default", "paper"):
        raise ValueError(f"unknown scale {scale!r}; known: default, paper")
    fig = FIGURES[name]
    if scale == "paper":
        fig = replace(fig, **fig.paper)
    fig = replace(fig, **overrides)
    with obs.span("experiments.figure", cat="experiments",
                  args_fn=lambda: {"name": name, "scale": scale,
                                   "cells": fig.target_cells}):
        rows = []
        for mesh in fig.meshes:
            for k in fig.k_values:
                config = ExperimentConfig(
                    mesh=mesh, target_cells=fig.target_cells, k=k,
                    m_values=fig.m_values, block_sizes=fig.block_sizes,
                    algorithms=fig.algorithms, seeds=fig.seeds,
                )
                rows.extend(run_grid(config, with_comm=fig.with_comm,
                                     workers=workers))
        if fig.worst_ratio:
            return rows, _worst_ratio_table(rows, fig.meshes, fig.plots[0][1])
        for row in rows:
            row["series"] = fig.series.format(**row)
        text = "\n\n".join(
            format_series(rows, x="m", y=y, group_by="series",
                          title=title.format(block=fig.block_sizes[0]))
            for y, title in fig.plots
        )
        return rows, text


def _worst_ratio_table(rows, meshes, title: str) -> str:
    """The headline's table: per mesh, the worst observed ratio to nk/m."""
    summary = []
    for mesh in meshes:
        mesh_rows = [r for r in rows if r["mesh"].startswith(mesh)]
        summary.append(
            {
                "mesh": mesh,
                "runs": len(mesh_rows),
                "worst_ratio": max(r["ratio_max"] for r in mesh_rows),
                "mean_ratio": float(np.mean([r["ratio"] for r in mesh_rows])),
                "within_3x": all(r["ratio_max"] <= 3.0 for r in mesh_rows),
            }
        )
    return format_table(
        summary, ["mesh", "runs", "mean_ratio", "worst_ratio", "within_3x"],
        title=title,
    )
