#!/usr/bin/env python
"""Regenerate the benchmark baseline (``BENCH_7.json``).

Thin wrapper over ``repro bench`` so CI and docs have a stable script
path.  Run from the repo root:

    PYTHONPATH=src python scripts/run_bench.py            # full run
    PYTHONPATH=src python scripts/run_bench.py --smoke    # CI schema check

Mesh size follows ``REPRO_BENCH_CELLS`` (default 2000) unless ``--cells``
overrides it.  The full run takes about 25-30 s on a 2-vCPU host and is
what the committed baseline at the repo root comes from; regenerate it
on the same class of machine before comparing numbers.  The run prints
every gate of ``repro.experiments.bench.GATES`` and exits 1, writing
nothing, when one fails.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cli import main  # noqa: E402


if __name__ == "__main__":
    sys.exit(main(["bench", *sys.argv[1:]]))
