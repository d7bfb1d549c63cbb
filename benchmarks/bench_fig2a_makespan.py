"""E1 — Fig. 2(a): Random Delay makespan vs m, cell vs block assignment.

Paper claim: partitioning into blocks (instead of choosing a processor
per cell) increases the makespan only modestly.
"""

from benchmarks.conftest import BENCH_CELLS, BENCH_SEEDS, run_once
from repro.experiments import pick, run_figure


def test_fig2a_makespan(benchmark, show):
    rows, text = run_once(
        benchmark,
        run_figure,
        "fig2a",
        target_cells=BENCH_CELLS,
        m_values=(2, 4, 8, 16, 32),
        block_sizes=(1, 16, 64),
        seeds=BENCH_SEEDS,
    )
    show(text)
    # Shape check: blocking never *reduces* makespan below per-cell by a
    # large margin, and stays within a small factor of it at moderate m
    # (blocks >= 2x processors here).
    for m in (2, 4, 8, 16):
        cell = pick(rows, m=m, block_size=1)[0]["makespan"]
        block = pick(rows, m=m, block_size=16)[0]["makespan"]
        assert block <= 3.0 * cell
