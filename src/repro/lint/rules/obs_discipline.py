"""RPL006 — observability discipline.

The tracing plane (``repro.obs``) only earns its keep if (a) every
measurement goes through the one clock chokepoint and (b) annotating a
hot loop with spans costs nothing when tracing is off.  Two static
checks enforce that:

* **raw clock reads** — ``time.perf_counter()`` anywhere in the package
  outside ``util/timing.py`` (the chokepoint) and ``obs/`` (the plane
  built on it) is a finding.  Scattered ``perf_counter`` idioms drift:
  some subtract, some negate, some forget the monotonic contract that
  makes cross-process span timestamps comparable.  Use
  :func:`repro.util.timing.now` or :func:`repro.obs.timed`.

* **eager span annotations** — in the benchmarked hot-path files an
  ``obs.span(...)``/``obs.timed(...)`` call must not build its payload
  per call.  An f-string span name or a dict-literal ``args_fn`` is
  evaluated even when tracing is disabled, which is exactly the overhead
  the ``args_fn=lambda: {...}`` indirection exists to avoid.  Span names
  must be constants; arguments must hide behind a callable.

The eager-annotation check is file-scoped like RPL005: a figure driver
may format span names however it likes, the scheduler inner loop may
not.
"""

from __future__ import annotations

import ast
import posixpath

from repro.lint.rules.base import Diagnostic, FileContext, Rule, register

__all__ = ["ObsDisciplineRule"]

#: Package-relative locations allowed to touch the raw clock.
_CLOCK_EXEMPT_FILES = ("util/timing.py",)
_CLOCK_EXEMPT_DIRS = ("obs/",)

#: Basenames of hot-path files where span annotations must be lazy.
_HOT_FILES = frozenset({
    "vector_scheduler.py",
    "list_scheduler.py",
    "dispatcher.py",
    "worker.py",
})

#: Resolved dotted names that open a span (``timed`` does when tracing).
_SPAN_CALLS = frozenset({
    "repro.obs.span",
    "repro.obs.tracer.span",
    "repro.obs.timed",
    "repro.obs.tracer.timed",
})


@register
class ObsDisciplineRule(Rule):
    code = "RPL006"
    name = "obs-discipline"
    description = (
        "no raw time.perf_counter() outside util/timing.py and obs/; "
        "span calls in hot-path files must not build f-strings or "
        "dicts eagerly"
    )

    def applies(self, relpath: str | None) -> bool:
        # Only package files (or fixtures opting in via the path
        # directive) are in scope; tests and scripts time however they
        # like.
        return relpath is not None

    def check(self, ctx: FileContext) -> list[Diagnostic]:
        relpath = ctx.relpath or ""
        clock_exempt = (
            relpath in _CLOCK_EXEMPT_FILES
            or relpath.startswith(_CLOCK_EXEMPT_DIRS)
        )
        hot = posixpath.basename(relpath) in _HOT_FILES
        out: list[Diagnostic] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            full = ctx.resolve(node.func)
            if full is None:
                continue
            if full == "time.perf_counter" and not clock_exempt:
                out.append(ctx.diagnostic(
                    self, node,
                    "raw time.perf_counter() bypasses the timing "
                    "chokepoint; use repro.util.timing.now() or obs.timed",
                ))
            elif hot and _is_span_call(full):
                out.extend(self._check_span_args(ctx, node))
        return out

    def _check_span_args(
        self, ctx: FileContext, node: ast.Call
    ) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        values = list(node.args) + [kw.value for kw in node.keywords]
        for value in values:
            if isinstance(value, ast.JoinedStr):
                out.append(ctx.diagnostic(
                    self, value,
                    "f-string in a hot-path span call is formatted on "
                    "every iteration even with tracing off; use a "
                    "constant name and move detail into args_fn",
                ))
            elif isinstance(value, ast.Dict):
                out.append(ctx.diagnostic(
                    self, value,
                    "dict literal in a hot-path span call is built on "
                    "every iteration even with tracing off; wrap it as "
                    "args_fn=lambda: {...}",
                ))
        return out


def _is_span_call(full: str) -> bool:
    return full in _SPAN_CALLS
