"""E7 — headline observation: makespan <= 3 nk/m on every real mesh run.

Paper: "for all the real mesh instances we tried, with varying number of
directions, block size and processors, the length of our schedule was
always at most 3nk/m ... this observation implies that we get linear
speedup in performance for up to 128 processors."

At reduced mesh scale two effects the paper never hits can push past the
bound, so the assertion applies the claim in the paper's own regime:

* the critical path D can dominate nk/m at the largest m (its meshes
  have nk/m >> D everywhere it reports), and
* random block-to-processor assignment needs blocks >> m to balance
  (its smallest blocks/m ratio is ~1 only at the very top of one sweep).

Runs outside that regime are still printed for inspection.
"""

from benchmarks.conftest import BENCH_CELLS, BENCH_SEEDS, run_once
from repro.experiments import run_figure
from repro.experiments.runner import get_instance
from repro.experiments.configs import ExperimentConfig


def test_headline_3nkm(benchmark, show):
    rows, text = run_once(
        benchmark,
        run_figure,
        "headline",
        target_cells=BENCH_CELLS,
        meshes=("tetonly", "well_logging", "long", "prismtet"),
        m_values=(4, 16, 64, 128),
        k_values=(8, 24),
        seeds=BENCH_SEEDS,
    )
    show(text)
    checked = 0
    for row in rows:
        cfg = ExperimentConfig(
            mesh=row["mesh"].split("_like")[0],
            target_cells=BENCH_CELLS,
            k=row["k"],
        )
        inst = get_instance(cfg)
        load_dominates = row["lower_bound"] >= inst.depth()
        blocks = inst.n_cells / row["block_size"]
        balanced_regime = row["block_size"] == 1 or blocks >= 4 * row["m"]
        if load_dominates and balanced_regime:
            checked += 1
            assert row["ratio_max"] <= 3.0, (
                f"{row['mesh']} k={row['k']} m={row['m']} "
                f"block={row['block_size']}: ratio {row['ratio_max']:.2f} > 3"
            )
    assert checked >= len(rows) // 3  # the regime filter must not be vacuous
