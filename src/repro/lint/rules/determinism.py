"""RPL001 — seeded determinism.

The paper's algorithms (Alg. 1–3) are *provably* good only over their own
random choices, and every experiment, golden snapshot, and cross-engine
equivalence check in this repository assumes that a fixed seed pins the
output bit-for-bit.  Any entropy source outside the
:mod:`repro.util.rng` chokepoint silently breaks that contract, so this
rule bans them statically:

* the stdlib ``random`` module (imports and calls);
* any ``numpy.random.*`` call — including ``default_rng`` — outside
  ``util/rng.py``: library code must route seeds through
  :func:`repro.util.rng.as_rng` / :func:`~repro.util.rng.spawn_rng`;
* unseeded ``default_rng()`` anywhere (fresh OS entropy);
* wall-clock ``time.time()`` (schedule output must not depend on when it
  ran; :mod:`repro.util.timing` is the sanctioned way to *measure*
  elapsed time — RPL006 polices raw ``perf_counter`` reads).

``util/rng.py`` (the chokepoint itself) and ``fuzz/`` (whose campaigns
may use ambient entropy to *search*, never to schedule) are exempt.
Attribute references such as ``np.random.Generator`` in annotations are
untouched — only calls are flagged.
"""

from __future__ import annotations

import ast

from repro.lint.rules.base import Diagnostic, FileContext, Rule, register

__all__ = ["DeterminismRule"]

#: Package-relative paths where the rule does not run.
_EXEMPT_FILES = ("util/rng.py",)
_EXEMPT_DIRS = ("fuzz/",)


@register
class DeterminismRule(Rule):
    code = "RPL001"
    name = "determinism"
    description = (
        "no stdlib random, bare np.random.*, time.time(), or unseeded "
        "default_rng() outside util/rng.py and fuzz/"
    )

    def applies(self, relpath: str | None) -> bool:
        if relpath is None:
            return True
        if relpath in _EXEMPT_FILES:
            return False
        return not relpath.startswith(_EXEMPT_DIRS)

    def check(self, ctx: FileContext) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                out.extend(self._check_import(ctx, node))
            elif isinstance(node, ast.Call):
                out.extend(self._check_call(ctx, node))
        return out

    def _check_import(self, ctx: FileContext, node: ast.AST) -> list[Diagnostic]:
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            modules = [node.module]
        else:
            return []
        return [
            ctx.diagnostic(
                self, node,
                "stdlib `random` is unseedable per-call; use "
                "repro.util.rng (as_rng/spawn_rng) instead",
            )
            for mod in modules
            if mod == "random" or mod.startswith("random.")
        ]

    def _check_call(self, ctx: FileContext, node: ast.Call) -> list[Diagnostic]:
        full = ctx.resolve(node.func)
        if full is None:
            return []
        if full == "time.time":
            return [ctx.diagnostic(
                self, node,
                "time.time() makes output depend on the wall clock; "
                "use repro.util.timing.now() or obs.timed for "
                "measurement-only timing",
            )]
        if full == "random" or full.startswith("random."):
            return [ctx.diagnostic(
                self, node,
                f"stdlib `{full}` call is not seed-reproducible; "
                "route randomness through repro.util.rng",
            )]
        if full.startswith("numpy.random."):
            leaf = full.rsplit(".", 1)[1]
            if leaf == "default_rng":
                if not node.args and not node.keywords:
                    msg = ("unseeded default_rng() draws OS entropy; pass "
                           "an explicit seed via repro.util.rng.as_rng")
                else:
                    msg = ("call repro.util.rng.as_rng/spawn_rng instead of "
                           "np.random.default_rng — util/rng.py is the "
                           "single seeding chokepoint")
                return [ctx.diagnostic(self, node, msg)]
            return [ctx.diagnostic(
                self, node,
                f"bare np.random.{leaf}() bypasses the seeding chokepoint; "
                "take an rng/seed argument and use repro.util.rng",
            )]
        return []
