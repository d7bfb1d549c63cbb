"""RPL007 — async discipline in the serve plane.

The ``repro.serve`` daemon multiplexes every connection, batch timer,
and drain step on one asyncio event loop; a single blocking call in a
coroutine stalls *all* of them — batching windows stretch, deadlines
expire in bulk, and SIGTERM drains hang.  This rule statically bans the
blocking operations that have bitten (or nearly bitten) the serve
code, when called directly from an ``async def`` body inside
``serve/``:

* **blocking sleeps** — ``time.sleep`` (use ``await asyncio.sleep``);
* **synchronous socket I/O** — ``socket.socket`` /
  ``socket.create_connection`` and the client-side frame helpers
  ``repro.serve.protocol.read_frame`` / ``write_frame`` (coroutines
  must use asyncio stream readers/writers);
* **unguarded instance construction** — ``repro.mesh.make_mesh``,
  ``repro.sweeps.build_instance``, and the runner's ``get_instance`` /
  ``get_blocks`` / ``get_grid_inputs`` / ``load_or_build`` chokepoints
  build meshes, DAGs and labels for seconds at a time; coroutines must
  push them through ``loop.run_in_executor`` (the server's registry
  executor), never call them inline.

Only the *coroutine body proper* is in scope: a call inside a nested
``def`` or ``lambda`` (e.g. the thunk handed to ``run_in_executor``)
runs on an executor thread, not the loop, and is exactly the sanctioned
pattern.
"""

from __future__ import annotations

import ast

from repro.lint.rules.base import Diagnostic, FileContext, Rule, register

__all__ = ["AsyncDisciplineRule"]

#: Resolved call targets that block the event loop, with the remedy
#: each diagnostic should teach.
_BLOCKING_CALLS = {
    "time.sleep": "use 'await asyncio.sleep(...)' instead",
    "socket.socket": (
        "synchronous sockets stall the loop; use asyncio streams "
        "(open_unix_connection / start_unix_server)"
    ),
    "socket.create_connection": (
        "synchronous sockets stall the loop; use asyncio streams "
        "(open_unix_connection / open_connection)"
    ),
    "repro.serve.protocol.read_frame": (
        "blocking frame I/O is client-side only; coroutines read frames "
        "via asyncio stream readers"
    ),
    "repro.serve.protocol.write_frame": (
        "blocking frame I/O is client-side only; coroutines write via "
        "asyncio stream writers"
    ),
    "repro.mesh.make_mesh": (
        "mesh construction blocks for seconds; run it through "
        "loop.run_in_executor (the registry executor)"
    ),
    "repro.sweeps.build_instance": (
        "DAG construction blocks for seconds; run it through "
        "loop.run_in_executor (the registry executor)"
    ),
    "repro.experiments.runner.get_instance": (
        "instance construction blocks; run it through "
        "loop.run_in_executor (the registry executor)"
    ),
    "repro.experiments.runner.load_or_build": (
        "instance construction and partitioning block; run it through "
        "loop.run_in_executor (the registry executor)"
    ),
    "repro.experiments.runner.get_grid_inputs": (
        "instance construction and partitioning block; run it through "
        "loop.run_in_executor (the registry executor)"
    ),
    "repro.experiments.runner.get_blocks": (
        "block partitioning blocks; run it through "
        "loop.run_in_executor (the registry executor)"
    ),
}


def _async_scope(
    ctx: FileContext, node: ast.AST
) -> ast.AsyncFunctionDef | None:
    """The coroutine whose body directly executes ``node``, if any.

    Walks parent links to the *nearest* function-like scope; a nested
    ``def``/``lambda`` shields its body (it runs wherever it is later
    called — for serve, on an executor thread), so only calls whose
    nearest scope is the ``async def`` itself are in the loop's hot
    path.
    """
    cur = ctx.parents.get(node)
    while cur is not None:
        if isinstance(cur, ast.AsyncFunctionDef):
            return cur
        if isinstance(cur, (ast.FunctionDef, ast.Lambda)):
            return None
        cur = ctx.parents.get(cur)
    return None


@register
class AsyncDisciplineRule(Rule):
    code = "RPL007"
    name = "async-discipline"
    description = (
        "no blocking calls (time.sleep, synchronous socket/frame I/O, "
        "inline mesh/DAG construction) directly inside async def bodies "
        "in serve/"
    )

    def applies(self, relpath: str | None) -> bool:
        # Only the daemon package runs an event loop; everything else
        # may block freely.
        return relpath is not None and relpath.startswith("serve/")

    def check(self, ctx: FileContext) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            full = ctx.resolve(node.func)
            if full is None or full not in _BLOCKING_CALLS:
                continue
            scope = _async_scope(ctx, node)
            if scope is None:
                continue
            out.append(ctx.diagnostic(
                self, node,
                f"blocking call {full}() inside coroutine "
                f"'{scope.name}' stalls the serve event loop; "
                f"{_BLOCKING_CALLS[full]}",
            ))
        return out
