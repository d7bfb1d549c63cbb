"""Run experiments at the paper's actual mesh sizes.

Usage:

    python scripts/run_full_scale.py [fig2a|fig2c|fig3c|headline|all] [--workers N]

At 31k–118k cells this takes minutes, not seconds; results are printed
as figure-shaped tables with per-grid wall time.  ``--workers`` fans the
grid cells over a process pool (bit-identical results).
"""

from __future__ import annotations

import sys


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    workers = 1
    if "--workers" in argv:
        i = argv.index("--workers")
        workers = int(argv[i + 1])
        del argv[i : i + 2]
    which = argv[0] if argv else "all"

    from repro.experiments.presets import PAPER_SCALE
    from repro.experiments.report import format_series
    from repro.experiments.runner import run_grid
    from repro.util.timing import now

    names = sorted(PAPER_SCALE) if which == "all" else [which]
    for name in names:
        config = PAPER_SCALE[name]
        print(
            f"== {name}: {config.mesh} ~{config.target_cells} cells, "
            f"k={config.k}, m={config.m_values}, blocks={config.block_sizes}"
        )
        t0 = now()
        rows = run_grid(config, with_comm=(name in ("fig2a",)), workers=workers)
        elapsed = now() - t0
        for row in rows:
            row["series"] = f"{row['algorithm']},block={row['block_size']}"
        print(format_series(rows, x="m", y="ratio", group_by="series",
                            title=f"{name} — ratio to nk/m"))
        print(f"[{elapsed:.0f}s]\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
