"""Sweep-scheduling benchmark entry point.

Run from the root of a checkout::

    python3 perfbench/run.py --workload grid_paper --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics (and writes one validated Chrome trace per workload under
``.perfbench_out/``).  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs the
four workloads one after another in this process and prefixes each
metric with its workload's name.

The benchmark imports ``repro`` from the checkout's own ``src/`` and
exits with code 2, printing no result, when that tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

from harness.metrics import WORKLOADS  # noqa: E402  (after ROOT, no repro import)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="input sizes; 'tiny' is the self-test's")
    p.add_argument("--inject", action="append", default=[],
                   choices=("bad_schedule", "serve_mismatch"),
                   help="self-test fault injection (one failed op each)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_repro() -> bool:
    """Put the checkout's ``src/`` first on the path and import ``repro``."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {src}", file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {src}",
              file=sys.stderr)
        return False
    return True


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process shared memory starts, if any."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def _print_result(res) -> None:
    mode = "per-layer (traced)" if res.trace else "end-to-end (untraced)"
    print(f"== {res.workload}  seed {res.seed}  {mode}")
    for line in res.notes:
        print(f"   {line}")
    for name, (value, unit) in res.metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"   {name:30s} {shown:>12s} {unit}")
    print(f"   ops: attempted {res.attempted}, failed {res.failed}")
    for failure in res.failures[:20]:
        print(f"   FAILED {failure}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not _import_repro():
        return 2
    os.chdir(ROOT)
    from harness.bench import run_workload

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            res = run_workload(str(ROOT), name, args.seed, args.seconds,
                               bool(args.trace), scale=args.scale,
                               inject=args.inject)
            _print_result(res)
            results.append(res)
    finally:
        _stop_resource_tracker()
    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r.correct for r in results),
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": {
            (f"{r.workload}.{k}" if prefix else k): {"value": v, "unit": u}
            for r in results for k, (v, u) in r.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
