"""RPL005 — hot-path hygiene.

``vector_scheduler.py``, ``list_scheduler.py``, and
``parallel/dispatcher.py`` are the three files the benchmark baseline
times; a single accidentally-quadratic idiom there erases the engine's
measured headroom long before any test fails.
Three APIs are banned in those files because each hides an O(n) copy or
shift inside an innocent-looking call:

* ``np.append`` — reallocates and copies the whole array per call (the
  frontier kernel's one batched ``np.insert`` per *superstep* is the
  sanctioned pattern);
* ``list.insert(0, ...)`` — shifts every element; use ``append`` plus a
  final ``reverse``, or ``collections.deque``;
* ``np.concatenate`` / ``np.hstack`` / ``np.vstack`` **inside a loop** —
  repeated whole-array copies; build a list and concatenate once after
  the loop.

The rule is deliberately file-scoped: these idioms are fine in cold
paths (reports, figure drivers), and banning them globally would only
breed pragmas.
"""

from __future__ import annotations

import ast
import posixpath

from repro.lint.rules.base import (
    Diagnostic,
    FileContext,
    Rule,
    loop_ancestor,
    register,
)

__all__ = ["HotPathRule"]

#: Basenames of the benchmarked hot-path files.
_HOT_FILES = frozenset({
    "vector_scheduler.py",
    "list_scheduler.py",
    "dispatcher.py",
})

_LOOPED_CONCAT = frozenset({
    "numpy.concatenate",
    "numpy.hstack",
    "numpy.vstack",
})


@register
class HotPathRule(Rule):
    code = "RPL005"
    name = "hot-path-hygiene"
    description = (
        "no np.append, list.insert(0, ...), or per-iteration "
        "np.concatenate in the benchmarked scheduler/dispatcher files"
    )

    def applies(self, relpath: str | None) -> bool:
        if relpath is None:
            return False
        return posixpath.basename(relpath) in _HOT_FILES

    def check(self, ctx: FileContext) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            full = ctx.resolve(node.func)
            if full == "numpy.append":
                out.append(ctx.diagnostic(
                    self, node,
                    "np.append copies the whole array per call; batch with "
                    "a python list (or one np.insert per step) instead",
                ))
            elif full in _LOOPED_CONCAT and loop_ancestor(ctx, node) is not None:
                out.append(ctx.diagnostic(
                    self, node,
                    f"{full.split('.')[-1]} inside a loop is quadratic; "
                    "collect parts and concatenate once after the loop",
                ))
            elif (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "insert"
                    and not _is_numpy_insert(ctx, node)
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and node.args[0].value == 0):
                out.append(ctx.diagnostic(
                    self, node,
                    "list.insert(0, ...) shifts every element; append and "
                    "reverse once, or use collections.deque",
                ))
        return out


def _is_numpy_insert(ctx: FileContext, node: ast.Call) -> bool:
    full = ctx.resolve(node.func)
    return full is not None and full.startswith("numpy.")
