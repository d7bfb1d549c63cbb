"""E3 — Fig. 2(c): Random Delays vs Random Delays with Priorities.

Paper claim: the priority (compacted) variant beats the plain layered
algorithm, by up to ~4x at high processor counts; makespan stays within
3 nk/m throughout (linear speedup regime).
"""

from benchmarks.conftest import BENCH_CELLS, BENCH_SEEDS, run_once
from repro.experiments import pick, run_figure


def test_fig2c_priorities(benchmark, show):
    m_values = (8, 16, 32, 64, 128)
    rows, text = run_once(
        benchmark,
        run_figure,
        "fig2c",
        target_cells=BENCH_CELLS,
        m_values=m_values,
        k_values=(8, 24),
        seeds=BENCH_SEEDS,
    )
    show(text)
    for k in (8, 24):
        for m in m_values:
            plain = pick(rows, m=m, k=k, algorithm="random_delay")[0]
            prio = pick(rows, m=m, k=k, algorithm="random_delay_priority")[0]
            assert prio["ratio"] <= plain["ratio"] + 1e-9
        # Gap widens with m (paper: up to 4x at 512 procs).
        gap_small = (
            pick(rows, m=m_values[0], k=k, algorithm="random_delay")[0]["ratio"]
            / pick(rows, m=m_values[0], k=k, algorithm="random_delay_priority")[0]["ratio"]
        )
        gap_large = (
            pick(rows, m=m_values[-1], k=k, algorithm="random_delay")[0]["ratio"]
            / pick(rows, m=m_values[-1], k=k, algorithm="random_delay_priority")[0]["ratio"]
        )
        assert gap_large > gap_small
