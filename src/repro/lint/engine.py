"""Driver for the AST invariant linter: files → diagnostics → report.

One pass: every file is read, parsed (stdlib ``ast``) and scanned for
pragmas once.  The file-local rules run on each parsed file whose
package-relative path is in their scope; the whole-program rules run on
the :class:`~repro.lint.graph.Program` built from the same parses; one
pragma table then drops the suppressed findings of both kinds.

Pragmas
-------
A finding that is *intentional* is silenced on its own line with::

    # repro-lint: disable=RPL003 -- worker attach never owns the segment

The justification after ``--`` is **required**; a pragma without one is
itself reported (as rule ``RPL000``), so suppressions stay reviewable.
Several rules may share one pragma (``disable=RPL003,RPL004``).  Every
pragma — used or not — is counted in the JSON report.

Fixture path directives
-----------------------
Path-scoped rules (RPL004/RPL005) key off the file's location inside the
``repro`` package.  Test fixtures live under ``tests/lint_fixtures/``,
so a fixture can pin its *virtual* location with a first-lines
directive::

    # repro-lint-fixture: path=core/vector_scheduler.py

which makes ``repro lint tests/lint_fixtures/RPL005_bad.py`` behave as
if the file sat at ``src/repro/core/vector_scheduler.py``.
"""

from __future__ import annotations

import ast
import json
import os
import re
from dataclasses import dataclass, field

# The rule registry loads first: its whole-program pack imports the graph.
from repro.lint.rules import all_rules
from repro.lint.rules.base import Diagnostic, FileContext, Rule
from repro.lint.graph import build_program

__all__ = [
    "Pragma",
    "LintReport",
    "lint_source",
    "lint_file",
    "lint_paths",
    "parse_paths",
    "iter_python_files",
    "package_relpath",
]

_PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*disable=(?P<codes>RPL\d{3}(?:\s*,\s*RPL\d{3})*)"
    r"(?:\s*--\s*(?P<why>\S.*))?"
)
_FIXTURE_RE = re.compile(r"#\s*repro-lint-fixture:\s*path=(?P<path>\S+)")


@dataclass(frozen=True)
class Pragma:
    """One inline ``# repro-lint: disable=...`` suppression."""

    path: str
    line: int
    rules: tuple[str, ...]
    justification: str

    def as_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "rules": list(self.rules),
            "justification": self.justification,
        }


@dataclass
class LintReport:
    """Outcome of one lint run over any number of files."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    pragmas: list[Pragma] = field(default_factory=list)
    suppressed: int = 0
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    def extend(self, other: "LintReport") -> None:
        self.diagnostics.extend(other.diagnostics)
        self.pragmas.extend(other.pragmas)
        self.suppressed += other.suppressed
        self.files_checked += other.files_checked

    def sort(self) -> None:
        self.diagnostics.sort(key=lambda d: (d.path, d.line, d.col, d.rule))
        self.pragmas.sort(key=lambda p: (p.path, p.line))

    # -- output formats ------------------------------------------------

    def format_text(self) -> str:
        lines = [d.format() for d in self.diagnostics]
        counted = len(self.diagnostics)
        lines.append(
            f"{counted} finding{'s' if counted != 1 else ''} in "
            f"{self.files_checked} files "
            f"({self.suppressed} suppressed by {len(self.pragmas)} pragmas)"
        )
        return "\n".join(lines)

    def format_github(self) -> str:
        """GitHub Actions workflow commands: one ``::error`` per finding."""
        lines = [
            f"::error file={d.path},line={d.line},col={d.col},"
            f"title={d.rule}::{d.message}"
            for d in self.diagnostics
        ]
        lines.append(
            f"repro lint: {len(self.diagnostics)} findings in "
            f"{self.files_checked} files"
        )
        return "\n".join(lines)

    def format_json(self) -> str:
        return json.dumps({
            "ok": self.ok,
            "files_checked": self.files_checked,
            "findings": [d.as_dict() for d in self.diagnostics],
            "pragma_count": len(self.pragmas),
            "pragmas": [p.as_dict() for p in self.pragmas],
            "suppressed": self.suppressed,
        }, indent=2, sort_keys=True)


def package_relpath(path: str) -> str | None:
    """Path relative to the ``repro`` package root, or ``None``.

    ``src/repro/core/dag.py`` → ``core/dag.py``; works for any prefix
    that contains a ``repro`` directory component.
    """
    parts = os.path.normpath(path).replace(os.sep, "/").split("/")
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i + 1:]) or None
    return None


def _comment_tokens(source: str) -> list[tuple[int, int, str]]:
    """``(line, col, text)`` of every comment token in ``source``.

    Tokenizing (rather than regex-scanning raw lines) keeps pragma
    examples inside docstrings and string literals from counting as real
    suppressions.
    """
    import io
    import tokenize

    out: list[tuple[int, int, str]] = []
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                out.append((tok.start[0], tok.start[1], tok.string))
    except (tokenize.TokenError, IndentationError):
        pass  # the ast parse reports the syntax problem
    return out


def _scan_pragmas(source: str, path: str) -> tuple[list[Pragma], list[Diagnostic]]:
    pragmas: list[Pragma] = []
    errors: list[Diagnostic] = []
    for lineno, col, comment in _comment_tokens(source):
        m = _PRAGMA_RE.search(comment)
        if not m:
            continue
        codes = tuple(c.strip() for c in m.group("codes").split(","))
        why = (m.group("why") or "").strip()
        if not why:
            errors.append(Diagnostic(
                path=path, line=lineno, col=col + m.start(),
                rule="RPL000",
                message=(
                    "pragma without justification — write "
                    "`# repro-lint: disable=RPLxxx -- <why this is safe>`"
                ),
            ))
            continue
        pragmas.append(Pragma(path=path, line=lineno, rules=codes,
                              justification=why))
    return pragmas, errors


def _fixture_path(source: str) -> str | None:
    """The ``# repro-lint-fixture: path=...`` directive in the first lines."""
    for line in source.splitlines()[:5]:
        m = _FIXTURE_RE.search(line)
        if m:
            return m.group("path")
    return None


def _parse(source: str, path: str, report: LintReport) -> FileContext | None:
    """Parse ``source`` once and scan its pragmas once, into ``report``.

    Returns ``None`` (after reporting an RPL000) on a syntax error.
    """
    report.files_checked += 1
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        report.diagnostics.append(Diagnostic(
            path=path, line=exc.lineno or 1, col=(exc.offset or 1) - 1,
            rule="RPL000", message=f"syntax error: {exc.msg}",
        ))
        return None
    pragmas, pragma_errors = _scan_pragmas(source, path)
    report.pragmas.extend(pragmas)
    report.diagnostics.extend(pragma_errors)
    relpath = _fixture_path(source) or package_relpath(path)
    return FileContext(path=path, relpath=relpath, tree=tree, source=source)


def _file_findings(ctx: FileContext, rules: list[Rule]) -> list[Diagnostic]:
    """Findings of the file-local ``rules`` in scope for ``ctx``."""
    return [
        diag
        for rule in rules
        if not rule.deep and rule.applies(ctx.relpath)
        for diag in rule.check(ctx)
    ]


def _suppress(report: LintReport, found: list[Diagnostic]) -> None:
    """Add ``found`` to ``report``, minus what its pragmas cover.

    A pragma covers a finding of a rule it lists on its own line of its
    own file; covered findings are only counted.
    """
    covered = {
        (p.path, p.line, code) for p in report.pragmas for code in p.rules
    }
    for diag in found:
        if (diag.path, diag.line, diag.rule) in covered:
            report.suppressed += 1
        else:
            report.diagnostics.append(diag)


def lint_source(
    source: str,
    path: str = "<string>",
    rules: list[Rule] | None = None,
) -> LintReport:
    """Run the file-local rules on one source string.

    ``path`` controls display and rule scope; whole-program rules need
    more than one file and are left to :func:`lint_paths`.
    """
    report = LintReport()
    ctx = _parse(source, path, report)
    if ctx is not None:
        rules = all_rules() if rules is None else rules
        _suppress(report, _file_findings(ctx, rules))
    return report


def lint_file(path: str, rules: list[Rule] | None = None) -> LintReport:
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    return lint_source(source, path=path, rules=rules)


def iter_python_files(paths: list[str]) -> list[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: set[str] = set()
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = [d for d in dirnames if d != "__pycache__"]
                for name in filenames:
                    if name.endswith(".py"):
                        out.add(os.path.join(dirpath, name))
        else:
            out.add(path)
    return sorted(out)


def parse_paths(paths: list[str]) -> tuple[list[FileContext], LintReport]:
    """Read and parse every ``.py`` file under ``paths`` once.

    Returns the parsed contexts (files with a syntax error are left out)
    and a report holding the files' pragmas and RPL000 findings.
    """
    report = LintReport()
    contexts = []
    for path in iter_python_files(paths):
        with open(path, encoding="utf-8") as fh:
            ctx = _parse(fh.read(), path, report)
        if ctx is not None:
            contexts.append(ctx)
    return contexts, report


def lint_paths(paths: list[str], rules: list[Rule] | None = None) -> LintReport:
    """Lint every ``.py`` file under ``paths`` in one pass.

    Each file is parsed once; the file-local rules run on each parsed
    file, the whole-program rules on the :class:`~repro.lint.graph.Program`
    built from the same parses, and one pragma table suppresses both.
    ``rules=None`` runs every registered rule.
    """
    rules = all_rules() if rules is None else rules
    contexts, report = parse_paths(paths)
    found = [d for ctx in contexts for d in _file_findings(ctx, rules)]
    program_rules = [r for r in rules if r.deep]
    if program_rules:
        program = build_program(contexts)
        report.diagnostics.extend(program.diagnostics)
        for rule in program_rules:
            found.extend(rule.check_program(program))
    _suppress(report, found)
    report.sort()
    return report
