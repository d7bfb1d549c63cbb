"""Plain-text tables and series for experiment rows.

The paper reports figures; we regenerate the underlying series as aligned
text tables (one per figure), which is what the benchmark harness prints
and EXPERIMENTS.md records.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

__all__ = ["format_table", "format_series", "pick"]


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:.0f}"
        return f"{value:.3g}" if abs(value) < 10 else f"{value:.1f}"
    return str(value)


def _natural_key(value) -> tuple:
    """Sort key comparing digit runs as integers: ``k=8`` before ``k=24``."""
    return tuple(
        int(part) if part.isdigit() else part
        for part in re.split(r"(\d+)", str(value))
    )


def format_table(rows: Sequence[dict], columns: Sequence[str], title: str = "") -> str:
    """Aligned text table of selected columns."""
    header = [c for c in columns]
    body = [[_fmt(row.get(c, "")) for c in columns] for row in rows]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
        for i in range(len(columns))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in body:
        lines.append("  ".join(v.rjust(w) for v, w in zip(r, widths)))
    return "\n".join(lines)


def pick(rows: Iterable[dict], **filters) -> list[dict]:
    """Rows matching all key=value filters."""
    out = []
    for row in rows:
        if all(row.get(k) == v for k, v in filters.items()):
            out.append(row)
    return out


def format_series(
    rows: Sequence[dict],
    x: str,
    y: str,
    group_by: str,
    title: str = "",
) -> str:
    """Pivot rows into one column per ``group_by`` value, indexed by ``x``.

    This is the figure-shaped view: x-axis values down the side, one
    series per group (e.g. one per algorithm), y values in the cells.
    Columns sort naturally, digit runs as integers.
    """
    groups = sorted({row[group_by] for row in rows}, key=_natural_key)
    xs = sorted({row[x] for row in rows})
    table_rows = []
    for xv in xs:
        row = {x: xv}
        for g in groups:
            match = [r for r in rows if r[x] == xv and r[group_by] == g]
            row[str(g)] = match[0][y] if match else ""
        table_rows.append(row)
    return format_table(table_rows, [x] + [str(g) for g in groups], title=title)
