"""RPL002 — engine parity.

The heap and vector list-scheduling engines are bit-identical by
contract (``tests/test_engine_equivalence.py``), but that guarantee only
reaches the caller if the ``engine`` selector actually *arrives* at the
scheduling core.  A function that accepts ``engine=`` and then calls
``list_schedule`` without forwarding it silently pins the caller to
``"auto"`` — the grid still runs, produces identical schedules, and the
engine benchmark quietly times the wrong thing.  That bug class survives
every behavioural test precisely because the engines agree, so it must
be caught structurally:

**Any function with an ``engine`` parameter must pass ``engine=engine``
to every scheduling call in its body.**  Scheduling calls are the core
entry points (``list_schedule``, ``list_schedule_unassigned``,
``run_cell_on``) plus calls through a registry algorithm
(a local name bound from ``get_algorithm(...)`` or ``ALGORITHMS[...]``).

Functions that accept ``engine`` for signature uniformity but never run
a list scheduler (e.g. Algorithm 1) make no scheduling calls, so the
rule is vacuously satisfied there.
"""

from __future__ import annotations

import ast

from repro.lint.rules.base import (
    Diagnostic,
    FileContext,
    Rule,
    register,
    registry_bound_names,
)

__all__ = ["EngineParityRule"]

#: Callee names (last dotted segment) that accept an ``engine`` kwarg.
#: The frontier kernel (``frontier_schedule``) is deliberately absent: it
#: *is* the vector engine, reached only after ``resolve_engine`` has
#: consumed the selector, and it takes no ``engine`` parameter.
_SCHEDULING_CALLS = frozenset({
    "list_schedule",
    "list_schedule_unassigned",
    "run_cell_on",
})


def _has_engine_param(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    args = fn.args
    every = args.posonlyargs + args.args + args.kwonlyargs
    return any(a.arg == "engine" for a in every)


def _forwards_engine(call: ast.Call) -> bool:
    """True when the call passes ``engine=engine`` (or splats ``**kwargs``)."""
    for kw in call.keywords:
        if kw.arg is None:  # **kwargs splat may carry it; trust the caller
            return True
        if kw.arg == "engine":
            return isinstance(kw.value, ast.Name) and kw.value.id == "engine"
    return False


@register
class EngineParityRule(Rule):
    code = "RPL002"
    name = "engine-parity"
    description = (
        "functions accepting engine= must forward engine=engine to every "
        "list_schedule / list_schedule_unassigned / registry-algorithm call"
    )

    def check(self, ctx: FileContext) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        for fn in ast.walk(ctx.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _has_engine_param(fn):
                continue
            registry_names = registry_bound_names(fn)
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                callee = func.attr if isinstance(func, ast.Attribute) else (
                    func.id if isinstance(func, ast.Name) else None
                )
                if callee is None:
                    continue
                is_target = callee in _SCHEDULING_CALLS or (
                    isinstance(func, ast.Name) and callee in registry_names
                )
                if is_target and not _forwards_engine(node):
                    out.append(ctx.diagnostic(
                        self, node,
                        f"`{fn.name}` accepts engine= but this call to "
                        f"`{callee}` does not forward engine=engine — the "
                        "caller's engine choice is silently dropped",
                    ))
        return out
