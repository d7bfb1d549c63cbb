"""Names and units of every metric the benchmark reports.

``BENCHMARK.json`` at the checkout root declares the workloads and the
metrics with their units and better directions; this module reads the
names and units from there and adds which span each per-layer metric
comes from.  It
imports nothing from ``repro``, so ``run.py`` can validate its arguments
before it knows the sources are present.
"""

from __future__ import annotations

import json
from pathlib import Path

_SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)

WORKLOADS = tuple(w["name"] for w in _SPEC["workloads"])

#: ``--trace 0`` metrics: name -> unit.
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}

#: ``--trace 1`` metrics: name -> unit (per-layer metrics have no bound).
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

#: Registry algorithms of the paper grid (``sched.<name>_s`` layers).
GRID_ALGORITHMS = (
    "random_delay",
    "random_delay_priority",
    "improved_random_delay",
    "level",
    "descendant",
    "dfds",
)

#: Set-up layers: seconds spent per set-up, in the fastest repetition.
SETUP_LAYERS = {
    "mesh.generate_s": "mesh.generate",
    "sweeps.build_s": "sweeps.build",
    "partition.blocks_s": "partition.blocks",
    "serve.publish_s": "serve.publish",
}

#: Op layers: mean self seconds per enclosing op (or check) span.
OP_LAYERS = {
    "instances.build_s": "instances.build",
    "core.levels_s": "core.levels",
    "core.assign_s": "core.assign",
    **{f"sched.{a}_s": f"sched.{a}" for a in GRID_ALGORITHMS},
    "core.priority_s": "core.priority",
    "core.kernel_s": "core.kernel",
    "core.validate_s": "core.validate",
    "comm.c1_s": "comm.c1",
    "comm.c2_s": "comm.c2",
    "analysis.summary_s": "analysis.summary",
    "parallel.grid_s": "parallel.grid",
}

ENGINES = ("heap", "bucket", "vector")
