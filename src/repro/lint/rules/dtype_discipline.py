"""RPL004 — dtype discipline for index data.

CSR offset arrays, edge lists, processor assignments, and block
labellings are *index* data: they are compared, packed into bit fields
(the frontier kernel shifts them into int64 codes), written into
shared-memory segments with a fixed wire format, and round-tripped
through JSON.  An implicit ``np.array(...)`` on such data inherits
whatever dtype the caller happened to hold — ``int32`` from a platform
default, ``float64`` from an arithmetic detour — and every one of those
consumers then mis-behaves in a way no single unit test pins (silent
truncation, packed-code overflow, wire-format drift between publisher
and attacher).

In ``core/`` and ``parallel/`` any ``np.array`` / ``np.asarray`` /
``np.ascontiguousarray`` call whose argument is recognisably index data
(by name: edges, src/dst, offsets, targets, indices, assignment, blocks,
labels, …) must pass an explicit ``dtype=``.  Non-index arrays
(priorities, costs, coordinates) are out of scope — they are genuinely
allowed to be floats.
"""

from __future__ import annotations

import ast

from repro.lint.rules.base import Diagnostic, FileContext, Rule, register

__all__ = ["DtypeDisciplineRule"]

_CONSTRUCTORS = frozenset({
    "numpy.array",
    "numpy.asarray",
    "numpy.ascontiguousarray",
})

#: Identifier suffixes that mark an argument as index data.
_INDEX_NAMES = frozenset({
    "edges", "edge", "src", "dst", "offsets", "targets", "indices", "idx",
    "assignment", "blocks", "labels", "indegree", "succ", "pred", "order",
})


def _index_hint(arg: ast.AST) -> str | None:
    """The identifier to test against the index-name list, if any."""
    if isinstance(arg, ast.Name):
        return arg.id
    if isinstance(arg, ast.Attribute):
        return arg.attr
    return None


def _is_index_name(name: str) -> bool:
    low = name.lower()
    if low in _INDEX_NAMES:
        return True
    return any(low.endswith("_" + n) for n in _INDEX_NAMES)


@register
class DtypeDisciplineRule(Rule):
    code = "RPL004"
    name = "dtype-discipline"
    description = (
        "index arrays (edges/CSR/assignments/blocks) in core/ and "
        "parallel/ must be constructed with an explicit integer dtype"
    )

    def applies(self, relpath: str | None) -> bool:
        if relpath is None:
            return False
        return relpath.startswith(("core/", "parallel/"))

    def check(self, ctx: FileContext) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            full = ctx.resolve(node.func)
            if full not in _CONSTRUCTORS:
                continue
            if any(kw.arg == "dtype" for kw in node.keywords):
                continue
            hint = _index_hint(node.args[0])
            if hint is None or not _is_index_name(hint):
                continue
            out.append(ctx.diagnostic(
                self, node,
                f"`{full.split('.')[-1]}({hint}, ...)` without dtype= on "
                "index data — pass an explicit integer dtype (np.int64) so "
                "packed codes and the shm wire format cannot drift",
            ))
        return out
