"""Rule protocol, registry, and the shared per-file analysis context.

Every rule is a small stateless object with a ``code`` (``RPLxxx``), a
scope predicate (:meth:`Rule.applies`), and a :meth:`Rule.check` that
walks one parsed module and returns diagnostics.  Rules register
themselves with :func:`register` at import time; the engine iterates
:func:`all_rules` so adding a rule is one module plus one import in
``repro.lint.rules``.

:class:`FileContext` pre-computes what most rules need from a module:

* an **import alias table** mapping local names to dotted module paths
  (``np`` → ``numpy``, ``SharedMemory`` →
  ``multiprocessing.shared_memory.SharedMemory``), so rules match on
  resolved names and aliasing cannot dodge them;
* **parent links** for every AST node, so rules can ask "am I inside a
  ``with`` item / class / loop?" without re-walking the tree.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

__all__ = [
    "Diagnostic",
    "FileContext",
    "Rule",
    "register",
    "all_rules",
    "get_rule",
    "dotted_name",
    "loop_ancestor",
    "class_ancestor",
    "enclosing_function",
    "in_with_item",
    "registry_bound_names",
]


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a rule violation at ``path:line:col``."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def as_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


class FileContext:
    """Everything a rule needs to inspect one parsed source file."""

    def __init__(self, path: str, relpath: str | None, tree: ast.Module,
                 source: str) -> None:
        self.path = path
        #: Path relative to the ``repro`` package root (``core/dag.py``),
        #: or ``None`` when the file lives outside the package.  Scoped
        #: rules key their :meth:`Rule.applies` off this.
        self.relpath = relpath
        self.tree = tree
        self.source = source
        self.aliases = _import_aliases(tree)
        self.parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent

    def resolve(self, node: ast.AST) -> str | None:
        """Dotted name of ``node`` with import aliases expanded."""
        return dotted_name(node, self.aliases)

    def diagnostic(self, rule: "Rule", node: ast.AST, message: str) -> Diagnostic:
        return Diagnostic(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=rule.code,
            message=message,
        )


def _import_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name → dotted path for every import in the module."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                full = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = full
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def dotted_name(node: ast.AST, aliases: dict[str, str] | None = None) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, with the root alias expanded.

    Returns ``None`` for anything that is not a pure attribute chain
    (calls, subscripts, literals) — rules treat that as "unknown" and
    stay silent rather than guessing.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = node.id
    if aliases and root in aliases:
        root = aliases[root]
    parts.append(root)
    return ".".join(reversed(parts))


def loop_ancestor(ctx: FileContext, node: ast.AST) -> ast.AST | None:
    """The nearest enclosing ``for``/``while``, if any."""
    cur = ctx.parents.get(node)
    while cur is not None:
        if isinstance(cur, (ast.For, ast.AsyncFor, ast.While)):
            return cur
        if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # A nested function body does not run "inside" the outer loop.
            return None
        cur = ctx.parents.get(cur)
    return None


def class_ancestor(ctx: FileContext, node: ast.AST) -> ast.ClassDef | None:
    """The nearest enclosing class definition, if any."""
    cur = ctx.parents.get(node)
    while cur is not None:
        if isinstance(cur, ast.ClassDef):
            return cur
        cur = ctx.parents.get(cur)
    return None


def enclosing_function(
    ctx: FileContext, node: ast.AST
) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
    """The nearest enclosing function definition, if any."""
    cur = ctx.parents.get(node)
    while cur is not None:
        if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return cur
        cur = ctx.parents.get(cur)
    return None


def in_with_item(ctx: FileContext, node: ast.AST) -> bool:
    """True when ``node`` sits inside a ``with`` statement's context expr.

    Walking parent links from ``node``, the chain passes through a
    ``withitem`` exactly when the node is part of a context expression
    (directly, or wrapped: ``with closing(SharedMemory(...))``).  A node
    in the ``with`` *body* reaches the ``With`` statement without ever
    crossing a ``withitem``.
    """
    cur: ast.AST = node
    parent = ctx.parents.get(cur)
    while parent is not None:
        if isinstance(parent, ast.withitem) and cur is parent.context_expr:
            return True
        cur, parent = parent, ctx.parents.get(parent)
    return False


#: Names whose call result / subscript is a registry algorithm.
REGISTRY_SOURCES = frozenset({"get_algorithm", "ALGORITHMS"})


def registry_bound_names(fn: ast.AST) -> set[str]:
    """Local names assigned from ``get_algorithm(...)`` / ``ALGORITHMS[...]``."""
    bound: set[str] = set()
    for node in ast.walk(fn):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        source = None
        if isinstance(value, ast.Call):
            source = value.func
        elif isinstance(value, ast.Subscript):
            source = value.value
        if source is None:
            continue
        name = source.attr if isinstance(source, ast.Attribute) else (
            source.id if isinstance(source, ast.Name) else None
        )
        if name in REGISTRY_SOURCES:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
    return bound


class Rule:
    """Base class: subclasses set the class attributes and ``check``."""

    code: str = "RPL000"
    name: str = ""
    description: str = ""
    #: Whole-program rules (:class:`~repro.lint.rules.deep.base.DeepRule`)
    #: set this; the file-local loop skips them.
    deep: bool = False

    def applies(self, relpath: str | None) -> bool:
        """Whether this rule runs on a file at package-relative ``relpath``."""
        return True

    def check(self, ctx: FileContext) -> list[Diagnostic]:
        raise NotImplementedError


_REGISTRY: dict[str, Rule] = {}


def register(cls: type) -> type:
    """Class decorator: instantiate and register the rule by its code."""
    rule = cls()
    if rule.code in _REGISTRY:
        raise ValueError(f"duplicate lint rule code {rule.code}")
    _REGISTRY[rule.code] = rule
    return cls


def all_rules() -> list[Rule]:
    """Registered rules, ordered by code."""
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def get_rule(code: str) -> Rule:
    return _REGISTRY[code]
