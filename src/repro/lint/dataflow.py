"""Interprocedural dataflow facts over a built :class:`~repro.lint.graph.Program`.

The deep rules all reduce to a handful of fact computations on the call
graph; this module owns them so each rule stays a thin policy layer:

* :func:`reachable_with_paths` — BFS closure with witness call chains
  (the "how does the worker reach ``warm_instance``?" primitive);
* :func:`propagate_any` — generic backwards may-fixpoint: a function has
  a fact if it has it *locally* or calls any function that has it (used
  for "reaches an RNG construction", "reaches a close()", …);
* :func:`worker_entrypoints`, :func:`unsafe_rng_functions`,
  :func:`pairing_scope` — the project-specific instantiations.

Everything here consumes only the
:class:`~repro.lint.graph.FunctionInfo` summaries, never raw ASTs.
"""

from __future__ import annotations

from repro.lint.graph import FunctionInfo, Program

__all__ = [
    "WORKER_ENTRYPOINT_NAMES",
    "SPAWN_BANNED_NAMES",
    "RNG_SANCTIONED_PREFIXES",
    "reachable_with_paths",
    "propagate_any",
    "worker_entrypoints",
    "unsafe_rng_functions",
    "pairing_scope",
    "is_rng_sanctioned",
    "format_path",
]

#: Base names of the functions a process pool runs directly: the pool
#: initializer and the chunk entrypoint.  Everything reachable from them
#: executes inside spawn workers.
WORKER_ENTRYPOINT_NAMES = frozenset({"init_worker", "run_chunk"})

#: Base names of "parent-side construction" functions that spawn workers
#: must never reach: cache warm-up, instance/mesh/partition builders, and
#: the memoised parent caches (fork-inherited state a spawn worker would
#: silently rebuild from scratch — the ~860 MB-per-worker bug class the
#: slim-worker refactor removed).
SPAWN_BANNED_NAMES = frozenset({
    "warm_instance",
    "build_instance",
    "build_instance_batched",
    "get_instance",
    "get_blocks",
    "get_grid_inputs",
    "load_or_build",
    "make_mesh",
    "partition_mesh_blocks",
    "run_cell",
    "run_grid",
})

#: Package-relative path prefixes whose direct RNG constructions are
#: sanctioned: the seeding chokepoint itself and the fuzz plane (which
#: owns its campaign entropy, mirroring RPL001's file-local exemption).
RNG_SANCTIONED_PREFIXES = ("util/rng.py", "fuzz/")


def reachable_with_paths(
    program: Program, roots: list[str]
) -> dict[str, list[str]]:
    """Qualnames reachable from ``roots`` with a witness call path each."""
    return program.reachable_from(roots)


def propagate_any(program: Program, local: dict[str, bool]) -> dict[str, bool]:
    """Backwards may-analysis: ``out[f] = local[f] or any(out[g] for g in
    callees(f))``, solved to a fixpoint over the (possibly cyclic) graph.
    """
    edges = program.call_edges()
    out = {q: bool(local.get(q, False)) for q in program.functions}
    changed = True
    while changed:
        changed = False
        for q in program.functions:
            if out[q]:
                continue
            if any(out.get(callee, False) for callee in edges[q]):
                out[q] = True
                changed = True
    return out


def worker_entrypoints(program: Program) -> list[str]:
    """Qualnames of the pool entrypoints present in this program."""
    return sorted(
        q for q, fn in program.functions.items()
        if fn.name in WORKER_ENTRYPOINT_NAMES and fn.class_name is None
    )


def is_rng_sanctioned(fn: FunctionInfo) -> bool:
    """May this function construct RNGs directly (chokepoint / fuzz)?"""
    rel = fn.relpath or ""
    return rel.startswith(RNG_SANCTIONED_PREFIXES)


def unsafe_rng_functions(program: Program) -> dict[str, bool]:
    """Functions that (transitively) construct an RNG outside the
    ``spawn_rng``/``as_rng`` chokepoint.

    A function is locally unsafe when it calls ``default_rng`` /
    ``Generator`` / ``RandomState`` / ``random.Random`` and does not live
    in a sanctioned location; the fact then propagates up the call graph.
    Calls *into* the chokepoint contribute nothing — that is precisely
    what makes ``spawn_rng(seed, ...)`` the sanctioned way to turn a seed
    into randomness.
    """
    local = {
        q: bool(fn.rng_sites) and not is_rng_sanctioned(fn)
        for q, fn in program.functions.items()
    }
    return propagate_any(program, local)


def pairing_scope(program: Program, fn: FunctionInfo) -> set[str]:
    """The functions whose close/unlink calls count for a creation in ``fn``.

    For a method, the owner is the whole class: every method of the class
    plus everything they call (the ``SharedInstanceStore`` pattern, where
    ``__init__`` stores the handle and ``close``/``_cleanup`` release it).
    For a plain function, it is the function's own transitive closure.
    """
    if fn.class_name is not None:
        roots = [
            m.qualname
            for m in program.functions_in_class(fn.module, fn.class_name)
        ]
    else:
        roots = [fn.qualname]
    return set(program.reachable_from(roots))


def format_path(program: Program, path: list[str]) -> str:
    """Human-readable ``a → b → c`` chain using short names."""

    def short(q: str) -> str:
        fn = program.functions.get(q)
        if fn is None:
            return q
        if fn.class_name:
            return f"{fn.class_name}.{fn.name}"
        return fn.name

    return " → ".join(short(q) for q in path)
