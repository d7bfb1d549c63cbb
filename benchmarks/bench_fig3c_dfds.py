"""E6 — Fig. 3(c): DFDS priorities ± delays vs random delays.

Paper claims: equal at small m; DFDS has the edge at high m with few
directions; at more directions they tie; delays help DFDS only at high
m and few directions.
"""

from benchmarks.conftest import BENCH_CELLS, BENCH_SEEDS, run_once
from repro.experiments import pick, run_figure


def test_fig3c_dfds(benchmark, show):
    m_values = (4, 8, 16, 32, 64)
    rows, text = run_once(
        benchmark,
        run_figure,
        "fig3c",
        target_cells=BENCH_CELLS,
        m_values=m_values,
        k_values=(8, 24),
        seeds=BENCH_SEEDS,
    )
    show(text)
    # Small-m parity.
    base = pick(rows, m=4, k=24, algorithm="random_delay_priority")[0]["ratio"]
    dfds = pick(rows, m=4, k=24, algorithm="dfds")[0]["ratio"]
    assert abs(dfds - base) / base < 0.15
    # High m, few directions: DFDS at least matches random delays.
    hi = m_values[-1]
    dfds_hi = pick(rows, m=hi, k=8, algorithm="dfds")[0]["ratio"]
    rnd_hi = pick(rows, m=hi, k=8, algorithm="random_delay_priority")[0]["ratio"]
    assert dfds_hi <= 1.25 * rnd_hi
    # More directions: the gap closes (ratio of ratios nearer 1).
    dfds24 = pick(rows, m=hi, k=24, algorithm="dfds")[0]["ratio"]
    rnd24 = pick(rows, m=hi, k=24, algorithm="random_delay_priority")[0]["ratio"]
    assert abs(dfds24 - rnd24) / rnd24 <= abs(dfds_hi - rnd_hi) / rnd_hi + 0.15


def test_fig3c_percell_separation(benchmark, show):
    """Per-cell assignment exposes the DFDS edge at high m / few dirs
    that block-imbalance masks at reduced scale (see EXPERIMENTS.md)."""
    rows, text = run_once(
        benchmark,
        run_figure,
        "fig3c",
        target_cells=BENCH_CELLS,
        m_values=(16, 64),
        k_values=(8,),
        seeds=BENCH_SEEDS,
        block_sizes=(1,),
    )
    show(text)
    dfds = pick(rows, m=64, k=8, algorithm="dfds")[0]["ratio"]
    rnd = pick(rows, m=64, k=8, algorithm="random_delay_priority")[0]["ratio"]
    assert dfds <= rnd + 1e-9
