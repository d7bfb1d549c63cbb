"""E2 — Fig. 2(b): communication costs C1 and C2 vs m.

Paper claims: (i) per-cell random assignment cuts ~(m-1)/m of all edges;
(ii) block partitioning slashes C1; (iii) C2 is far below C1 and barely
moves under blocking.
"""

from benchmarks.conftest import BENCH_CELLS, BENCH_SEEDS, run_once
from repro.experiments import pick, run_figure


def test_fig2b_comm(benchmark, show):
    rows, text = run_once(
        benchmark,
        run_figure,
        "fig2b",
        target_cells=BENCH_CELLS,
        m_values=(2, 4, 8, 16, 32),
        block_sizes=(1, 16, 64),
        seeds=BENCH_SEEDS,
    )
    show(text)
    for m in (4, 8, 16, 32):
        cell = pick(rows, m=m, block_size=1)[0]
        block = pick(rows, m=m, block_size=64)[0]
        # (i) per-cell fraction concentrates near (m-1)/m.
        assert abs(cell["c1_fraction"] - (m - 1) / m) < 0.1
        # (ii) blocking cuts C1 by a large factor.
        assert block["c1"] < 0.6 * cell["c1"]
        # (iii) C2 well below C1 for the per-cell assignment.
        assert cell["c2"] < 0.5 * cell["c1"]
