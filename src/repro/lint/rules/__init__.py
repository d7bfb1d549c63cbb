"""Rule registry for the ``repro.lint`` invariant linter.

Importing this package registers every built-in rule.  To add one:
write a module with a ``@register``-decorated :class:`~.base.Rule`
subclass, import it below, and add a fixture pair under
``tests/lint_fixtures/`` (see ``docs/linting.md``).
"""

from repro.lint.rules.base import (
    Diagnostic,
    FileContext,
    Rule,
    all_rules,
    get_rule,
    register,
)

# Importing the rule modules registers them (order fixes nothing — the
# registry sorts by code).
from repro.lint.rules import async_discipline as _async  # noqa: F401
from repro.lint.rules import determinism as _determinism  # noqa: F401
from repro.lint.rules import dtype_discipline as _dtype  # noqa: F401
from repro.lint.rules import engine_parity as _engine  # noqa: F401
from repro.lint.rules import hot_path as _hot_path  # noqa: F401
from repro.lint.rules import obs_discipline as _obs  # noqa: F401
from repro.lint.rules import shm_lifecycle as _shm  # noqa: F401

# The whole-program pack (RPL101+) registers alongside the file-local
# rules so --rule/--list-rules see them; the file-local loop skips
# anything marked deep=True.
from repro.lint.rules import deep as _deep  # noqa: F401

__all__ = [
    "Diagnostic",
    "FileContext",
    "Rule",
    "all_rules",
    "get_rule",
    "register",
]
