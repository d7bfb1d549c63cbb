"""RPL104 — span-safety on worker paths.

The obs plane's crash contract (PR 5) is that a worker dying mid-chunk
loses no trace data: every span opened in a worker is closed on the
exception edge, drained, and shipped back attached to the exception.
That only holds when spans are opened as context managers — a span
handle opened positionally (``h = obs.span(...)`` without ``with``, or a
bare ``obs.span(...)`` statement) is never closed when the next line
raises, which corrupts the nesting the Perfetto exporter validates and
silently drops the span's duration.

**Every ``obs.span(...)`` or ``obs.timed(...)`` creation in a function
reachable from a worker entrypoint must be the context expression of a
``with`` statement.**
Parent-side code gets more latitude (the driver can own handles across
``yield`` boundaries); worker code, which is exactly the code whose
exceptions cross a process boundary, does not.
"""

from __future__ import annotations

from repro.lint.dataflow import format_path, worker_entrypoints
from repro.lint.graph import Program
from repro.lint.rules.base import Diagnostic, register
from repro.lint.rules.deep.base import DeepRule, program_diagnostic

__all__ = ["SpanSafetyRule"]


@register
class SpanSafetyRule(DeepRule):
    code = "RPL104"
    name = "span-safety"
    description = (
        "obs.span(...) in worker-reachable code must be opened as a "
        "`with` context expression so exception edges close it"
    )

    def check_program(self, program: Program) -> list[Diagnostic]:
        roots = worker_entrypoints(program)
        if not roots:
            return []
        reach = program.reachable_from(roots)
        out: list[Diagnostic] = []
        for qualname in sorted(reach):
            fn = program.functions[qualname]
            for line, col, in_with in fn.span_sites:
                if in_with:
                    continue
                out.append(program_diagnostic(
                    self, fn, line, col,
                    f"span opened outside a `with` block in `{fn.name}`, "
                    "which runs on the worker path "
                    f"({format_path(program, reach[qualname])}) — an "
                    "exception before the close leaves the span dangling "
                    "and its trace data is lost with the worker",
                ))
        return out
