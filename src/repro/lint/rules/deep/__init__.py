"""Whole-program (interprocedural) rule pack — RPL101-105.

Imported by :mod:`repro.lint.rules` so the deep rules register alongside
the file-local ones; the file-local loop skips them (``deep = True``)
and :func:`repro.lint.lint_paths` runs their
:meth:`~repro.lint.rules.deep.base.DeepRule.check_program` over the
:class:`~repro.lint.graph.Program` built from the files it parsed.
"""

from repro.lint.rules.deep.base import DeepRule

# Importing the rule modules registers them.
from repro.lint.rules.deep import engine_propagation as _engine  # noqa: F401
from repro.lint.rules.deep import seed_escape as _seed  # noqa: F401
from repro.lint.rules.deep import shm_pairing as _shm  # noqa: F401
from repro.lint.rules.deep import span_safety as _span  # noqa: F401
from repro.lint.rules.deep import spawn_safety as _spawn  # noqa: F401

__all__ = ["DeepRule"]
