"""E4 — Fig. 3(a): level priorities without delays vs random delays.

Paper claim: the two perform equally at small m; the random delays
improve the makespan at higher processor counts.
"""

from benchmarks.conftest import BENCH_CELLS, BENCH_SEEDS, run_once
from repro.experiments import pick, run_figure


def test_fig3a_level(benchmark, show):
    m_values = (4, 8, 16, 32, 64)
    rows, text = run_once(
        benchmark,
        run_figure,
        "fig3a",
        target_cells=BENCH_CELLS,
        m_values=m_values,
        k_values=(8, 24),
        seeds=BENCH_SEEDS,
    )
    show(text)
    # Equal at small m: within 10% of each other.
    for k in (8, 24):
        lvl = pick(rows, m=4, k=k, algorithm="level")[0]["ratio"]
        rnd = pick(rows, m=4, k=k, algorithm="random_delay_priority")[0]["ratio"]
        assert abs(lvl - rnd) / rnd < 0.10
    # Everything stays within the paper's 3x envelope at moderate m.
    for row in rows:
        if row["m"] <= 16:
            assert row["ratio"] <= 3.0
