#!/usr/bin/env python
"""Run the schedule and cache benchmark (``repro bench``).

Thin wrapper over ``repro bench`` so CI and docs have a stable script
path.  Run from the repo root:

    PYTHONPATH=src python scripts/run_bench.py            # full run
    PYTHONPATH=src python scripts/run_bench.py --smoke    # CI schema check

Mesh size follows ``REPRO_BENCH_CELLS`` (default 2000) unless ``--cells``
overrides it.  The full run takes about 10 s on a 2-vCPU host and writes
``BENCH_<schema>.json`` (``--out`` picks another path); compare numbers
only with a run on the same class of machine.  The run prints every
gate of ``repro.experiments.bench.GATES`` and exits 1, writing nothing,
when one fails.  Grid and serve latency and throughput are timed by
``perfbench/run.py`` (workloads ``figures_par`` and ``serve_open``).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cli import main  # noqa: E402


if __name__ == "__main__":
    sys.exit(main(["bench", *sys.argv[1:]]))
