"""AST-based invariant linter for the scheduling and parallel planes.

The runtime test suites (fuzzing, engine equivalence, grid smoke) verify
the repository's structural invariants *after the fact*; this package
enforces them *at review time*, statically, with zero runtime deps
beyond the stdlib ``ast`` module.

One pass (:func:`lint_paths`) parses every file once, runs the
file-local rules on each file, builds an alias-resolved call graph over
all of them (:mod:`repro.lint.graph`, with dataflow facts from
:mod:`repro.lint.dataflow`) for the whole-program rules, and applies one
table of ``# repro-lint: disable=RPLxxx -- why`` pragmas to both.
``repro lint --list-rules`` prints the registered rules;
``docs/linting.md`` documents them, the pragma, and how to add a rule.

Run it as ``repro lint [paths] [--rule RPLxxx] [--format text|json|github]``;
the pytest gates are ``tests/test_lint.py`` and
``tests/test_lint_deep.py``.
"""

from repro.lint.engine import (
    LintReport,
    Pragma,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
    package_relpath,
    parse_paths,
)
from repro.lint.graph import Program, build_program
from repro.lint.rules import Diagnostic, Rule, all_rules, get_rule, register

__all__ = [
    "Diagnostic",
    "LintReport",
    "Pragma",
    "Program",
    "Rule",
    "all_rules",
    "build_program",
    "get_rule",
    "register",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
    "package_relpath",
    "parse_paths",
]
