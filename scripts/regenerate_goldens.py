"""Regenerate (or check) the golden snapshots.

``tests/goldens/registry_goldens.json`` pins makespan / C1 / C2 for
every registered scheduler on three small fixed-seed instances.  The
golden test (``tests/test_goldens.py``) fails on any drift, which turns
silent behaviour changes — a reordered heap, a changed tie-break, an
RNG-stream shift — into explicit, reviewable diffs.

``tests/goldens/callgraph_edges.json`` pins the resolved call-graph
edges (``[caller, callee, kind]`` triples) that ``repro lint`` builds
for its whole-program rules over the fixture package under
``tests/lint_fixtures/deep/callgraph/``.  Any change to symbol
resolution, registry fan-out, instantiation edges, or fallback dispatch
shows up as a reviewable diff here before it silently changes what the
RPL101+ rules can see.

Usage::

    PYTHONPATH=src python scripts/regenerate_goldens.py          # check only
    PYTHONPATH=src python scripts/regenerate_goldens.py --write  # rewrite

Run with ``--write`` only when a behaviour change is *intended*, and
commit the JSON diff alongside the code that caused it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

GOLDEN_PATH = ROOT / "tests" / "goldens" / "registry_goldens.json"
CALLGRAPH_GOLDEN_PATH = ROOT / "tests" / "goldens" / "callgraph_edges.json"
CALLGRAPH_FIXTURE_DIR = ROOT / "tests" / "lint_fixtures" / "deep" / "callgraph"

#: (label, family, kwargs, m) — three small, structurally distinct cases.
GOLDEN_CASES = [
    ("rotated_chains_n12_k3_m3", "rotated_chains", {"n": 12, "k": 3, "seed": 7}, 3),
    ("fork_join_n16_k2_m4", "fork_join", {"n": 16, "k": 2, "seed": 1}, 4),
    ("wide_shallow_n18_k4_m4", "wide_shallow", {"n": 18, "k": 4, "seed": 5}, 4),
]

#: Seed handed to every algorithm (the registry contract is that equal
#: seeds give bit-identical schedules; see tests/test_determinism_properties.py).
ALGO_SEED = 0


def compute_goldens() -> dict:
    """Run every registry algorithm on every golden case; return the table."""
    from repro.comm.cost import c2_cost, interprocessor_edges
    from repro.heuristics import ALGORITHMS
    from repro.instances import make_instance

    table: dict = {}
    for label, family, kwargs, m in GOLDEN_CASES:
        inst = make_instance(family, **kwargs)
        row = {}
        for name, fn in sorted(ALGORITHMS.items()):
            sched = fn(inst, m, seed=ALGO_SEED)
            row[name] = {
                "makespan": int(sched.makespan),
                "c1": int(interprocessor_edges(inst, sched.assignment)),
                "c2": int(c2_cost(sched)),
            }
        table[label] = row
    return table


def compute_callgraph_edges() -> list:
    """Resolved edges of the call-graph fixture package."""
    from repro.lint import build_program, parse_paths

    contexts, _ = parse_paths([str(CALLGRAPH_FIXTURE_DIR)])
    return build_program(contexts).edges_json()


def _sync(path: Path, current, write: bool) -> int:
    """Write or check one golden file; returns a shell status."""
    if write:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")
        return 0
    if not path.exists():
        print(f"missing {path.relative_to(ROOT)} — run with --write")
        return 1
    stored = json.loads(path.read_text())
    if stored == current:
        print(f"{path.name} matches current code")
        return 0
    if isinstance(current, dict):
        for case, row in current.items():
            for algo, vals in row.items():
                old = stored.get(case, {}).get(algo)
                if old != vals:
                    print(f"DRIFT {case} / {algo}: stored={old} current={vals}")
    else:
        stored_set = {tuple(e) for e in stored}
        current_set = {tuple(e) for e in current}
        for edge in sorted(current_set - stored_set):
            print(f"DRIFT new edge: {edge}")
        for edge in sorted(stored_set - current_set):
            print(f"DRIFT lost edge: {edge}")
    print(f"{path.name} differs — rerun with --write if the change is intended")
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true",
        help="rewrite the golden files instead of checking against them",
    )
    args = parser.parse_args(argv)

    status = _sync(GOLDEN_PATH, compute_goldens(), args.write)
    status |= _sync(
        CALLGRAPH_GOLDEN_PATH, compute_callgraph_edges(), args.write
    )
    return status


if __name__ == "__main__":
    raise SystemExit(main())
