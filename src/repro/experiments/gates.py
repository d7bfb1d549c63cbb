"""Acceptance gates as data: a row type, a report path language, one evaluator.

A gate reads values out of a JSON-like report by path, compares each
with a threshold, and comes out ``pass``, ``fail`` or ``skipped:
<reason>``.  The benchmark's table and its applies-when rules live in
:mod:`repro.experiments.bench` (:data:`repro.experiments.bench.GATES`);
this module knows nothing about the benchmark.
"""

from __future__ import annotations

import operator
import re
from typing import Callable, NamedTuple

__all__ = ["OPS", "Gate", "evaluate", "format_value", "select"]


class Gate(NamedTuple):
    """One acceptance gate: a name, a value, a comparison, a scope, a reason.

    ``path`` selects values in the report (syntax: :func:`select`);
    ``derive``, when set, maps each one to the number, or list of
    numbers, that must satisfy ``op`` (a key of :data:`OPS`) against
    ``threshold``.  ``when`` names the reports the gate applies to; the
    caller of :func:`evaluate` decides what each name means.
    """

    name: str
    path: str
    op: str
    threshold: object
    when: str
    reason: str
    derive: Callable | None = None


#: Comparators by :attr:`Gate.op`; ``in`` is an open interval.
OPS = {
    "==": operator.eq,
    ">=": operator.ge,
    ">": operator.gt,
    "<=": operator.le,
    "<": operator.lt,
    "in": lambda value, bounds: bounds[0] < value < bounds[1],
}

_PART = re.compile(
    r"(?P<keys>[^[]+)(\[(\*|(?P<field>\w+)(?P<neg>!?)=(?P<want>\w+))\])?"
)


def select(report: dict, path: str) -> list[tuple]:
    """Every ``(container, key)`` that ``path`` selects in ``report``.

    A path is dot-separated parts.  A part names a key, or several as
    ``{a,b}``, and may end in a list selector: ``[*]`` for every item,
    ``[field=value]`` or ``[field!=value]`` for the items whose ``field``
    does (or does not) read ``value``.  A missing key raises
    ``LookupError`` or ``TypeError``, and so does a selector that
    matches nothing.
    """
    nodes, slots = [report], []
    for part in path.split("."):
        m = _PART.fullmatch(part)
        keys = m["keys"].strip("{}").split(",")
        slots = [(node, key) for node in nodes for key in keys]
        nodes = [node[key] for node, key in slots]
        if m["keys"] != part:
            slots = [
                (items, i)
                for items in nodes
                for i, item in enumerate(items)
                if m["field"] is None
                or (str(item[m["field"]]) == m["want"]) != bool(m["neg"])
            ]
            if not slots:
                raise LookupError(f"{path}: {part} selects nothing")
            nodes = [items[i] for items, i in slots]
    return slots


def evaluate(
    gates, report: dict, skip: Callable[[Gate], str]
) -> list[tuple[Gate, str, object]]:
    """Walk ``gates`` over ``report``: one ``(gate, status, value)`` each.

    ``status`` is ``"pass"``, ``"fail"`` or ``"skipped: <reason>"``,
    where ``skip(gate)`` gives the reason (``""`` when the gate
    applies).  A gate that applies fails when its value is missing or
    not a number (``bool`` counts) — it never skips.  ``value`` is the
    first value that fails, else the first one compared.
    """
    results = []
    for gate in gates:
        reason = skip(gate)
        if reason:
            results.append((gate, f"skipped: {reason}", None))
            continue
        values = []
        try:
            for container, key in select(report, gate.path):
                value = container[key]
                value = value if gate.derive is None else gate.derive(value)
                values.extend(value if isinstance(value, list) else [value])
        except (LookupError, TypeError, ValueError, ZeroDivisionError):
            values = []
        bad = [
            v
            for v in values
            if not isinstance(v, (int, float))
            or not OPS[gate.op](v, gate.threshold)
        ]
        status = "fail" if bad or not values else "pass"
        results.append((gate, status, (bad or values or [None])[0]))
    return results


def format_value(value) -> str:
    """A gate value or threshold for a table cell (``None``: missing)."""
    if value is None:
        return "missing"
    return f"{value:.4g}" if isinstance(value, float) else str(value)
