"""Base class for whole-program (interprocedural) lint rules.

A :class:`DeepRule` shares the registry, codes, and pragma machinery
with the file-local rules, but its unit of analysis is a built
:class:`~repro.lint.graph.Program` instead of one file's AST.  The
file-local loop skips deep rules (their :meth:`check` is an empty
no-op); :func:`repro.lint.lint_paths` runs :meth:`check_program` once
per program and suppresses its findings through the same pragma table,
matched by file and line.
"""

from __future__ import annotations

from repro.lint.graph import FunctionInfo, Program
from repro.lint.rules.base import Diagnostic, FileContext, Rule

__all__ = ["DeepRule", "program_diagnostic"]


def program_diagnostic(
    rule: "DeepRule", fn: FunctionInfo, line: int, col: int, message: str
) -> Diagnostic:
    """A finding anchored at ``line:col`` of the file owning ``fn``."""
    return Diagnostic(
        path=fn.path, line=line, col=col, rule=rule.code, message=message
    )


class DeepRule(Rule):
    """Whole-program rule: analyse a :class:`Program`, not a file."""

    #: Marks the rule as whole-program; the file-local loop skips it.
    deep = True

    def check(self, ctx: FileContext) -> list[Diagnostic]:
        return []  # file-local pass: nothing to do

    def check_program(self, program: Program) -> list[Diagnostic]:
        raise NotImplementedError
