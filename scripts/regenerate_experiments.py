"""Regenerate every experiment table in one run.

Produces the raw material for EXPERIMENTS.md: runs each benchmark's
underlying experiment function directly (no pytest) and prints every
table, with timing.  Usage:

    python scripts/regenerate_experiments.py [--cells 2000]
"""

from __future__ import annotations

import argparse
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--cells", type=int, default=2000)
    args = parser.parse_args(argv)

    # The bench modules read their scale from the environment at import
    # time, so set it before importing them.
    import os

    os.environ["REPRO_BENCH_CELLS"] = str(args.cells)
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

    from repro.experiments import FIGURES, run_figure
    from repro.util.timing import now

    for name in FIGURES:
        t0 = now()
        _rows, text = run_figure(name, target_cells=args.cells)
        print(text)
        print(f"[{name}: {now() - t0:.1f}s]\n")

    # Extension tables, via the bench modules' sweep functions.
    from benchmarks import (
        bench_ablation_blocksize,
        bench_ablation_delays,
        bench_ablation_partitioner,
        bench_alg3_improved,
        bench_hetero_costs,
        bench_latency_tradeoff,
        bench_mesh_inventory,
        bench_speedup,
        bench_theory_bounds,
        bench_transport_solve,
    )
    from repro.experiments import format_table

    extensions = [
        ("E8 lemmas", bench_theory_bounds._lemma_rows,
         ["m", "lemma2_max_copies", "lemma2_bound_logn",
          "lemma3_max_per_proc", "lemma3_bound"]),
        ("E8 balls-in-bins", bench_theory_bounds._ballsbins_rows,
         ["balls_t", "bins_m", "E_max_load", "corollary2_bound"]),
        ("E9 block size", bench_ablation_blocksize._sweep,
         ["block_size", "makespan", "ratio", "c1", "c1_fraction", "c2"]),
        ("E10 partitioners", bench_ablation_partitioner._compare,
         ["mesh", "partitioner", "cut", "balance", "c1"]),
        ("E11 Alg 3", bench_alg3_improved._sweep,
         ["m"] + list(bench_alg3_improved.ALGOS)),
        ("E13 delay distributions", bench_ablation_delays._sweep,
         ["delays", "ratio_mean", "ratio_max"]),
        ("E14 mesh inventory", bench_mesh_inventory._inventory,
         ["mesh", "n_cells", "n_tasks", "depth", "max_parallelism",
          "intrinsic_parallelism"]),
        ("E15 transport", bench_transport_solve._solve_suite,
         ["case", "iterations", "converged", "phi_mean", "exact", "max_err"]),
        ("E16 latency", bench_latency_tradeoff._sweep,
         ["latency", "per_cell", "blocks", "blocks_win"]),
        ("E17 speedup", bench_speedup._sweep,
         ["m", "speedup", "efficiency"]),
        ("E18 hetero costs", bench_hetero_costs._sweep,
         ["cost_sigma", "ratio_mean", "ratio_max"]),
    ]
    for name, fn, cols in extensions:
        t0 = now()
        rows = fn()
        print(format_table(rows, cols, title=name))
        print(f"[{name}: {now() - t0:.1f}s]\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
