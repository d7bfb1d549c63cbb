"""Whole-program model for the deep lint rules: modules, symbols, calls.

The file-local rules (RPL001-007) see one module at a time; the
interprocedural rules (RPL101-105, :mod:`repro.lint.rules.deep`) need to
answer questions like "can ``run_chunk`` reach ``warm_instance``?" or
"does the ``engine=`` selector survive this call chain?".  This module
builds the shared substrate those rules walk:

* an **import graph** over the analyzed files (module → modules it
  imports, restricted to modules inside the program);
* a **symbol table** of every module-level function, class, and method,
  keyed by dotted qualname (``repro.parallel.worker.run_chunk``,
  ``repro.parallel.shm_store.SharedInstanceStore.publish_arrays``);
* an **alias-resolved call graph**: every call site in every function is
  resolved through the existing :class:`~repro.lint.rules.base.FileContext`
  import-alias machinery, module re-exports (``from repro.parallel import
  attach``), ``self.``/``cls.`` method dispatch, and class instantiation
  (an edge to ``__init__``).  Calls that cannot be resolved exactly get
  **conservative fallback edges**: a call through a registry-bound name
  (``algo = get_algorithm(...)``; ``ALGORITHMS[...]``) fans out to every
  registered algorithm, and a method call on an unknown receiver
  (``obj.close()``) fans out to every known method of that name.  Dynamic
  dispatch therefore widens the graph instead of escaping it.

The program is built from the :class:`~repro.lint.rules.base.FileContext`
objects the lint engine already parsed, so no file is parsed twice.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field

from repro.lint.rules.base import (
    Diagnostic,
    FileContext,
    in_with_item,
    registry_bound_names,
)

__all__ = [
    "CallSite",
    "ShmCreate",
    "FunctionInfo",
    "ModuleInfo",
    "Program",
    "build_program",
]

#: Method names too generic to fan out on for dynamic-dispatch fallback
#: edges — matching every ``.get()`` or ``.append()`` in the tree would
#: connect everything to everything and drown the reachability rules in
#: false paths.  ``close``/``unlink`` are deliberately *kept* out of this
#: set's spirit but handled separately: the shm rules consume them as
#: per-function facts, so the call graph may skip them here.
_FALLBACK_SKIP = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "get", "setdefault", "update", "keys", "values", "items", "copy",
    "add", "discard", "union", "intersection", "sort", "index", "count",
    "join", "split", "rsplit", "strip", "lstrip", "rstrip", "format",
    "startswith", "endswith", "replace", "encode", "decode", "lower",
    "upper", "read", "write", "readline", "readlines", "flush", "close",
    "seek", "tell", "open", "exists", "is_file", "is_dir", "mkdir",
    "result", "cancel", "submit", "shutdown", "register", "unregister",
    "astype", "tolist", "reshape", "ravel", "flatten", "sum", "max",
    "min", "mean", "any", "all", "fill", "item", "nonzero", "argsort",
    "group", "groups", "match", "search", "findall", "put", "commit",
    "execute", "executemany", "fetchone", "fetchall", "cursor",
})

#: Argument expressions treated as carrying a seed value (RPL105).
_SEED_ATTR = "seed"


def _is_seed_expr(node: ast.AST) -> bool:
    """Does this expression syntactically carry a seed value?"""
    if isinstance(node, ast.Name) and node.id == _SEED_ATTR:
        return True
    if isinstance(node, ast.Attribute) and node.attr == _SEED_ATTR:
        return True
    if isinstance(node, ast.Subscript):
        sl = node.slice
        return isinstance(sl, ast.Constant) and sl.value == _SEED_ATTR
    return False


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function, resolution included.

    ``callees`` are program-internal qualnames (empty for calls that
    leave the program, e.g. into numpy); ``kind`` records how resolution
    happened — ``direct`` (exact symbol), ``method`` (``self``/``cls``
    dispatch), ``init`` (class instantiation), ``registry`` (fan-out to
    the algorithm registry), ``fallback`` (fan-out by method name).
    """

    line: int
    col: int
    raw: str | None          # dotted name as written, aliases expanded
    callees: tuple[str, ...]
    kind: str
    kwargs: tuple[str, ...]
    has_star_kwargs: bool
    #: Shape of the ``engine`` argument at this site: ``None`` (absent),
    #: ``"ident"`` (``engine=engine`` or bare ``engine`` positionally),
    #: ``"literal"`` (``engine="heap"``), or ``"other"``.
    engine_arg: str | None
    #: A seed-carrying expression is passed (positionally or by keyword).
    passes_seed: bool
    #: The call is the context expression of a ``with`` statement.
    in_with: bool


@dataclass(frozen=True)
class ShmCreate:
    """One ``SharedMemory(...)`` creation site and its local context.

    ``owning`` is True only for ``create=True`` sites — the ones whose
    process owns the segment and owes it a close+unlink.  ``gap`` is True
    when statements execute between the creation and the point where the
    handle escapes the function (returned, stored on ``self``, or handed
    to another callable) — the window where an exception leaks the
    segment unless ``protected`` (a ``try`` with a handler or ``finally``
    wraps the window).
    """

    line: int
    col: int
    owning: bool
    in_with: bool
    binding: str | None   # "name:shm" / "attr:_shm" / None
    gap: bool
    protected: bool


@dataclass
class FunctionInfo:
    """One analyzed function/method with its dataflow summary."""

    qualname: str
    module: str
    name: str
    class_name: str | None
    path: str
    relpath: str | None
    lineno: int
    params: tuple[str, ...]
    accepts_engine: bool
    has_seed_param: bool
    calls: list[CallSite] = field(default_factory=list)
    shm_creates: list[ShmCreate] = field(default_factory=list)
    #: Receivers of ``.close()`` / ``.unlink()`` calls in this body
    #: (dotted receiver text like ``self._shm`` / ``shm``, or ``""`` for
    #: unresolvable receivers — presence is what the pairing rule needs).
    closes: tuple[str, ...] = ()
    unlinks: tuple[str, ...] = ()
    #: ``(line, col, resolved-name)`` of direct RNG constructions.
    rng_sites: tuple = ()
    #: ``(line, col, in_with)`` of ``obs.span``/``obs.timed`` creations.
    span_sites: tuple = ()

    def callees(self) -> set[str]:
        out: set[str] = set()
        for site in self.calls:
            out.update(site.callees)
        return out


@dataclass
class ModuleInfo:
    """One analyzed source file."""

    name: str             # dotted module name ("repro.parallel.worker")
    path: str
    relpath: str | None   # package-relative ("parallel/worker.py")
    imports: tuple[str, ...] = ()   # program-internal modules imported


class Program:
    """The whole-program view the deep rules operate on."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        #: Registry fan-out targets (qualnames of registered algorithms).
        self.registry_targets: tuple[str, ...] = ()
        #: RPL000 findings raised while building (a module name claimed
        #: by two files: the later file is left out of the program).
        self.diagnostics: list[Diagnostic] = []

    # -- graph queries --------------------------------------------------

    def call_edges(self) -> dict[str, set[str]]:
        """caller qualname → set of callee qualnames."""
        return {q: fn.callees() for q, fn in self.functions.items()}

    def reachable_from(self, roots: list[str]) -> dict[str, list[str]]:
        """BFS closure: reachable qualname → witness call path from a root.

        The witness path (``[root, ..., target]``) is what makes the
        reachability rules' diagnostics actionable — the message can show
        the exact call chain instead of just "somehow reaches".
        """
        edges = self.call_edges()
        paths: dict[str, list[str]] = {}
        frontier: list[str] = []
        for root in roots:
            if root in self.functions and root not in paths:
                paths[root] = [root]
                frontier.append(root)
        while frontier:
            nxt: list[str] = []
            for caller in frontier:
                for callee in sorted(edges.get(caller, ())):
                    # Edges may point at class qualnames (dataclass
                    # instantiation with a generated __init__); only
                    # function nodes are traversable.
                    if callee in self.functions and callee not in paths:
                        paths[callee] = paths[caller] + [callee]
                        nxt.append(callee)
            frontier = nxt
        return paths

    def functions_in_class(self, module: str, class_name: str) -> list[FunctionInfo]:
        return [
            fn for fn in self.functions.values()
            if fn.module == module and fn.class_name == class_name
        ]

    def edges_json(self) -> list[list[str]]:
        """Sorted ``[caller, callee, kind]`` triples (the golden format)."""
        out = set()
        for qualname, fn in self.functions.items():
            for site in fn.calls:
                for callee in site.callees:
                    out.add((qualname, callee, site.kind))
        return [list(t) for t in sorted(out)]



# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _module_name(relpath: str | None, path: str) -> str:
    """Dotted module name for a file: ``parallel/worker.py`` →
    ``repro.parallel.worker``; files outside the package use their stem."""
    if relpath is None:
        return os.path.splitext(os.path.basename(path))[0]
    parts = relpath.replace(os.sep, "/").split("/")
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    else:
        parts[-1] = os.path.splitext(parts[-1])[0]
    return ".".join(["repro"] + [p for p in parts if p])


def _receiver_text(node: ast.AST) -> str:
    """Source-ish text of a method-call receiver (``self._shm``, ``shm``)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


class _ModuleAnalysis:
    """Parsed module plus its symbol/alias tables (build-time only)."""

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.path = ctx.path
        self.relpath = ctx.relpath
        self.tree = ctx.tree
        self.name = _module_name(ctx.relpath, ctx.path)
        #: Module-level defs: local name → ("func"| "class", node)
        self.defs: dict[str, tuple[str, ast.AST]] = {}
        #: class name → {method name → node}
        self.methods: dict[str, dict[str, ast.AST]] = {}
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.defs[node.name] = ("func", node)
            elif isinstance(node, ast.ClassDef):
                self.defs[node.name] = ("class", node)
                table: dict[str, ast.AST] = {}
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        table[item.name] = item
                self.methods[node.name] = table


def build_program(contexts: list[FileContext]) -> Program:
    """Build the resolved whole-program graph from parsed files.

    Each module name keeps its first file; a later file claiming the same
    name is left out and reported as an RPL000 on the program.
    """
    prog = Program()
    by_name: dict[str, _ModuleAnalysis] = {}
    for ctx in contexts:
        a = _ModuleAnalysis(ctx)
        first = by_name.setdefault(a.name, a)
        if first is not a:
            prog.diagnostics.append(Diagnostic(
                path=a.path, line=1, col=0, rule="RPL000",
                message=(
                    f"module `{a.name}` is already defined by {first.path}; "
                    "this file is left out of the whole-program rules"
                ),
            ))
    analyses = list(by_name.values())

    # Pass 1: symbols, re-export tables, registry targets.
    #   symbol index: dotted name → qualname for functions/classes/methods
    symbols: dict[str, str] = {}
    #   re-exports: "module.local" → alias target dotted name
    reexports: dict[str, str] = {}
    #   method name → [qualnames] for fallback dispatch
    methods_by_name: dict[str, list[str]] = {}
    registry_targets: set[str] = set()

    for a in analyses:
        for local, (kind, node) in a.defs.items():
            dotted = f"{a.name}.{local}"
            symbols[dotted] = dotted
            if kind == "class":
                for mname in a.methods[local]:
                    symbols[f"{dotted}.{mname}"] = f"{dotted}.{mname}"
        for local, target in a.ctx.aliases.items():
            reexports[f"{a.name}.{local}"] = target

    def resolve_symbol(dotted: str | None) -> str | None:
        """Program qualname for a dotted name, chasing re-exports."""
        seen = set()
        while dotted and dotted not in seen:
            seen.add(dotted)
            if dotted in symbols:
                return symbols[dotted]
            if dotted in reexports:
                dotted = reexports[dotted]
                continue
            # "module.attr" where module itself was re-exported whole.
            head, _, tail = dotted.rpartition(".")
            if head in reexports and tail:
                dotted = f"{reexports[head]}.{tail}"
                continue
            return None
        return None

    # Registry fan-out targets: values of a module-level ALGORITHMS dict
    # (plain or annotated assignment — `ALGORITHMS: dict[...] = {...}`).
    for a in analyses:
        for node in a.tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            if not (any(isinstance(t, ast.Name) and t.id == "ALGORITHMS"
                        for t in targets)
                    and isinstance(node.value, ast.Dict)):
                continue
            for value in node.value.values:
                target = value
                if (isinstance(value, ast.Call)
                        and isinstance(value.func, ast.Name)
                        and value.func.id == "partial" and value.args):
                    target = value.args[0]
                dotted = a.ctx.resolve(target)
                if dotted and "." not in dotted:
                    dotted = f"{a.name}.{dotted}"
                q = resolve_symbol(dotted)
                if q:
                    registry_targets.add(q)
    prog.registry_targets = tuple(sorted(registry_targets))

    # Pass 2: per-function analysis.
    for a in analyses:
        imported = set()
        for target in a.ctx.aliases.values():
            head = target
            while head:
                if head in by_name:
                    imported.add(head)
                    break
                head, _, _ = head.rpartition(".")
        prog.modules[a.name] = ModuleInfo(
            name=a.name, path=a.path, relpath=a.relpath,
            imports=tuple(sorted(imported - {a.name})),
        )
        for local, (kind, node) in a.defs.items():
            if kind == "func":
                fn = _analyze_function(
                    a, node, qualname=f"{a.name}.{local}", class_name=None,
                    resolve_symbol=resolve_symbol,
                    registry_targets=prog.registry_targets,
                )
                prog.functions[fn.qualname] = fn
            else:
                for mname, mnode in a.methods[local].items():
                    fn = _analyze_function(
                        a, mnode,
                        qualname=f"{a.name}.{local}.{mname}",
                        class_name=local,
                        resolve_symbol=resolve_symbol,
                        registry_targets=prog.registry_targets,
                    )
                    prog.functions[fn.qualname] = fn

    for qualname, fn in prog.functions.items():
        if fn.class_name is not None:
            methods_by_name.setdefault(fn.name, []).append(qualname)

    # Pass 3: fallback edges for still-unresolved method calls.
    for fn in prog.functions.values():
        patched: list[CallSite] = []
        for site in fn.calls:
            if (not site.callees and site.kind == "pending-fallback"
                    and site.raw):
                mname = site.raw.rpartition(".")[2]
                targets = tuple(sorted(
                    q for q in methods_by_name.get(mname, ())
                    if q != fn.qualname
                ))
                patched.append(CallSite(
                    line=site.line, col=site.col, raw=site.raw,
                    callees=targets, kind="fallback" if targets else "external",
                    kwargs=site.kwargs,
                    has_star_kwargs=site.has_star_kwargs,
                    engine_arg=site.engine_arg,
                    passes_seed=site.passes_seed, in_with=site.in_with,
                ))
            elif site.kind == "pending-fallback":
                patched.append(CallSite(
                    line=site.line, col=site.col, raw=site.raw,
                    callees=site.callees, kind="external",
                    kwargs=site.kwargs,
                    has_star_kwargs=site.has_star_kwargs,
                    engine_arg=site.engine_arg,
                    passes_seed=site.passes_seed, in_with=site.in_with,
                ))
            else:
                patched.append(site)
        fn.calls = patched
    return prog


def _param_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> tuple[str, ...]:
    args = fn.args
    every = args.posonlyargs + args.args + args.kwonlyargs
    names = [a.arg for a in every]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return tuple(names)


def _engine_arg_shape(call: ast.Call) -> str | None:
    """Shape of the engine argument at this call site (see CallSite)."""
    for kw in call.keywords:
        if kw.arg == "engine":
            if isinstance(kw.value, ast.Name) and kw.value.id == "engine":
                return "ident"
            if isinstance(kw.value, ast.Constant):
                return "literal"
            return "other"
    for arg in call.args:
        if isinstance(arg, ast.Name) and arg.id == "engine":
            return "ident"
    return None


def _stmt_ancestor(ctx: FileContext, node: ast.AST,
                   body_fn: ast.AST) -> ast.stmt | None:
    """The statement directly inside ``body_fn``'s (possibly nested)
    block structure that contains ``node``."""
    cur: ast.AST | None = node
    while cur is not None:
        parent = ctx.parents.get(cur)
        if isinstance(cur, ast.stmt) and parent is not None:
            return cur
        cur = parent
    return None


def _protected_by_try(ctx: FileContext, node: ast.AST, fn: ast.AST) -> bool:
    """Is ``node`` inside a ``try`` (with handler or finally) within ``fn``?"""
    cur = ctx.parents.get(node)
    while cur is not None and cur is not fn:
        if isinstance(cur, ast.Try) and (cur.handlers or cur.finalbody):
            return True
        cur = ctx.parents.get(cur)
    return False


def _binding_of(ctx: FileContext, call: ast.Call) -> str | None:
    """How the call's result is bound: ``name:x`` / ``attr:_shm`` / None."""
    parent = ctx.parents.get(call)
    # Unwrap trivial wrappers up to the assignment statement.
    while parent is not None and not isinstance(parent, ast.stmt):
        if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            return None
        parent = ctx.parents.get(parent)
    if isinstance(parent, ast.Assign) and len(parent.targets) == 1:
        target = parent.targets[0]
        if isinstance(target, ast.Name):
            return f"name:{target.id}"
        if isinstance(target, ast.Attribute):
            return f"attr:{target.attr}"
    return None


def _names_in(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _cleanup_guard(stmt: ast.stmt, name: str) -> bool:
    """Is ``stmt`` a ``try`` whose handler/finally closes AND unlinks ``name``?

    Such a statement is the *protection* for the creation window, not part
    of it — work inside its body cannot leak the segment.
    """
    if not isinstance(stmt, ast.Try):
        return False
    seen: set[str] = set()
    for cleanup in [*stmt.handlers, *stmt.finalbody]:
        for sub in ast.walk(cleanup):
            if (isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and isinstance(sub.func.value, ast.Name)
                    and sub.func.value.id == name
                    and sub.func.attr in ("close", "unlink")):
                seen.add(sub.func.attr)
    return {"close", "unlink"} <= seen


def _escape_gap(ctx: FileContext, call: ast.Call,
                fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Statements run between a creation and its handle's escape?

    The creation's enclosing statement is located inside its block; the
    following sibling statements are scanned until one *escapes* the
    bound handle — returns it, stores it on an attribute, or passes it to
    a callable (ownership transfer, e.g. ``cls(shm, manifest)``).  Any
    non-escaping statement before that point is "work done while holding
    an unprotected handle": an exception there leaks the segment.
    """
    binding = _binding_of(ctx, call)
    if binding is None:
        parent = ctx.parents.get(call)
        if isinstance(parent, (ast.Call, ast.Return)):
            # Created directly inside the escaping expression
            # (``return cls(SharedMemory(...))``) — ownership transfers
            # atomically, no window.
            return False
        return True  # discarded handle: the window never closes
    if not binding.startswith("name:"):
        # Bound straight onto self/attribute — the owner object holds it
        # from the first moment; its close/unlink paths are the pairing
        # clause's job, not the window clause's.
        return False
    name = binding.split(":", 1)[1]
    stmt = _stmt_ancestor(ctx, call, fn)
    if stmt is None:
        return False
    block = ctx.parents.get(stmt)
    body = getattr(block, "body", None)
    if not isinstance(body, list) or stmt not in body:
        return False
    following = body[body.index(stmt) + 1:]
    unprotected = 0
    for nxt in following:
        escapes = False
        if isinstance(nxt, ast.Return) and nxt.value is not None:
            escapes = name in _names_in(nxt.value)
        elif isinstance(nxt, ast.Assign):
            if any(isinstance(t, ast.Attribute) for t in nxt.targets):
                escapes = name in _names_in(nxt.value)
        if not escapes:
            for sub in ast.walk(nxt):
                if isinstance(sub, ast.Call) and any(
                    isinstance(arg, ast.Name) and arg.id == name
                    for arg in sub.args
                ):
                    escapes = True
                    break
        if escapes:
            return unprotected > 0
        if not _cleanup_guard(nxt, name):
            unprotected += 1
    # Never escapes: any unguarded remainder of the block is the window.
    return unprotected > 0


def _analyze_function(
    a: _ModuleAnalysis,
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    qualname: str,
    class_name: str | None,
    resolve_symbol,
    registry_targets: tuple[str, ...],
) -> FunctionInfo:
    ctx = a.ctx
    params = _param_names(node)
    info = FunctionInfo(
        qualname=qualname, module=a.name, name=node.name,
        class_name=class_name, path=a.path, relpath=a.relpath,
        lineno=node.lineno, params=params,
        accepts_engine="engine" in params,
        has_seed_param="seed" in params,
    )
    registry_locals = registry_bound_names(node)
    closes: list[str] = []
    unlinks: list[str] = []
    rng_sites: list[tuple] = []
    span_sites: list[tuple] = []

    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        func = sub.func
        raw = ctx.resolve(func)
        kwargs = tuple(kw.arg for kw in sub.keywords if kw.arg is not None)
        has_star = any(kw.arg is None for kw in sub.keywords)
        passes_seed = any(_is_seed_expr(arg) for arg in sub.args) or any(
            kw.arg == _SEED_ATTR or _is_seed_expr(kw.value)
            for kw in sub.keywords if kw.arg is not None
        )
        in_with = in_with_item(ctx, sub)
        engine_arg = _engine_arg_shape(sub)

        # close/unlink facts (shm pairing), span + rng sites.
        if isinstance(func, ast.Attribute):
            if func.attr == "close":
                closes.append(_receiver_text(func.value))
            elif func.attr == "unlink":
                unlinks.append(_receiver_text(func.value))
        if raw is not None:
            last = raw.rpartition(".")[2]
            if raw in ("numpy.random.default_rng", "numpy.random.RandomState",
                       "numpy.random.Generator", "random.Random",
                       "numpy.random.seed"):
                rng_sites.append((sub.lineno, sub.col_offset, raw))
            if raw.endswith((".span", ".timed")) and (
                    "obs" in raw or "tracer" in raw):
                span_sites.append((sub.lineno, sub.col_offset, in_with))

        # SharedMemory creation sites.
        if raw is not None and (raw.endswith(".SharedMemory")
                                or raw == "SharedMemory"):
            owning = any(
                kw.arg == "create" and isinstance(kw.value, ast.Constant)
                and bool(kw.value.value)
                for kw in sub.keywords
            )
            info.shm_creates.append(ShmCreate(
                line=sub.lineno, col=sub.col_offset, owning=owning,
                in_with=in_with, binding=_binding_of(ctx, sub),
                gap=_escape_gap(ctx, sub, node),
                protected=_protected_by_try(ctx, sub, node),
            ))

        # -- call-edge resolution ---------------------------------------
        callees: tuple[str, ...] = ()
        kind = "external"
        if isinstance(func, ast.Name) and func.id in registry_locals:
            callees, kind = registry_targets, "registry"
        elif raw is not None:
            dotted = raw
            if "." not in dotted:
                # Bare local name → same-module symbol (aliases already
                # expanded names imported from elsewhere).
                dotted = f"{a.name}.{raw}"
            elif dotted.startswith("self.") and class_name is not None:
                dotted = f"{a.name}.{class_name}.{dotted[5:]}"
            elif dotted.startswith("cls.") and class_name is not None:
                dotted = f"{a.name}.{class_name}.{dotted[4:]}"
            q = resolve_symbol(dotted)
            if q is None and raw is not None and "." not in raw:
                q = resolve_symbol(raw)
            if q is not None:
                # Class → constructor edge (instantiation).
                init = resolve_symbol(f"{q}.__init__")
                if init is not None and q not in (qualname,):
                    # q is a class with an __init__ → edge to __init__;
                    # otherwise q is the function/method itself.
                    if f"{q}.__init__" == init:
                        callees, kind = (init,), "init"
                    else:
                        callees, kind = (q,), "direct"
                else:
                    is_self = raw.startswith(("self.", "cls."))
                    callees, kind = (q,), ("method" if is_self else "direct")
            elif isinstance(func, ast.Attribute):
                kind = "pending-fallback"
        elif isinstance(func, ast.Attribute):
            kind = "pending-fallback"
            raw_recv = _receiver_text(func.value)
            raw = f"{raw_recv}.{func.attr}" if raw_recv else func.attr

        # `cls(...)` inside a classmethod instantiates the own class.
        if (isinstance(func, ast.Name) and func.id == "cls"
                and class_name is not None):
            init = resolve_symbol(f"{a.name}.{class_name}.__init__")
            if init is not None:
                callees, kind = (init,), "init"

        if kind in ("pending-fallback",):
            last = (raw or "").rpartition(".")[2]
            if not last or last in _FALLBACK_SKIP or last.startswith("__"):
                kind = "external"

        info.calls.append(CallSite(
            line=sub.lineno, col=sub.col_offset, raw=raw,
            callees=callees, kind=kind, kwargs=kwargs,
            has_star_kwargs=has_star, engine_arg=engine_arg,
            passes_seed=passes_seed, in_with=in_with,
        ))

    info.closes = tuple(closes)
    info.unlinks = tuple(unlinks)
    info.rng_sites = tuple(rng_sites)
    info.span_sites = tuple(span_sites)
    return info
