"""RPL101 — spawn-safety: workers must never rebuild parent-side state.

The slim-worker contract (``tests/test_parallel_rss.py`` pins
``dag.cache.rebuild == 0``) says a spawn-context pool worker attaches to
the published shared-memory instance and inherits every warmed cache —
it never re-runs the construction pipeline.  The runtime test only
covers the configurations it executes; this rule proves the property
over the whole call graph:

**No call path may lead from a worker entrypoint (``init_worker``,
``run_chunk``) to parent-side construction** — ``warm_instance``, the
instance/mesh/partition builders, the memoised parent caches
(``get_instance`` / ``get_blocks`` / ``get_grid_inputs`` / …), or the
serial drivers (``run_cell``, ``run_grid``).  A worker that reaches any
of these silently rebuilds hundreds of MB of state per process (the
exact bug class the spawn-worker refactor removed) or reads
fork-inherited globals a spawn worker does not have.

The diagnostic shows the witness call chain, so the fix target — the
edge to cut or redirect through the shared store — is explicit.
"""

from __future__ import annotations

from repro.lint.dataflow import (
    SPAWN_BANNED_NAMES,
    format_path,
    worker_entrypoints,
)
from repro.lint.graph import Program
from repro.lint.rules.base import Diagnostic, register
from repro.lint.rules.deep.base import DeepRule, program_diagnostic

__all__ = ["SpawnSafetyRule"]


@register
class SpawnSafetyRule(DeepRule):
    code = "RPL101"
    name = "spawn-safety"
    description = (
        "no call path from worker entrypoints (init_worker/run_chunk) to "
        "instance construction, cache warm-up, or fork-inherited parent "
        "caches"
    )

    def check_program(self, program: Program) -> list[Diagnostic]:
        roots = worker_entrypoints(program)
        if not roots:
            return []
        reach = program.reachable_from(roots)
        out: list[Diagnostic] = []
        for qualname, path in sorted(reach.items()):
            fn = program.functions[qualname]
            if fn.name not in SPAWN_BANNED_NAMES or qualname in roots:
                continue
            # Anchor the finding at the first call edge out of the
            # entrypoint on the witness path: that is the reviewable line.
            caller = program.functions[path[0]]
            site = next(
                (c for c in caller.calls if path[1] in c.callees), None
            ) if len(path) > 1 else None
            line = site.line if site else caller.lineno
            col = site.col if site else 0
            out.append(program_diagnostic(
                self, caller, line, col,
                f"worker entrypoint `{caller.name}` reaches parent-side "
                f"construction `{fn.name}` "
                f"(call chain: {format_path(program, path)}) — spawn "
                "workers must attach to the published store, never "
                "rebuild instances, meshes, partitions, or warm caches",
            ))
        return out
