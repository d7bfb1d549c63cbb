"""Terminal line charts — figures without a plotting stack.

The figure drivers print series tables; this renders the same rows as a
dotted ASCII chart (one marker per series) so the *shape* of each paper
figure — crossovers, divergence with m, flat lines — is visible at a
glance in a terminal-only environment.  No dependencies; pure string
assembly; deterministic output pinned by tests.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.report import _natural_key
from repro.util.errors import ReproError

__all__ = ["ascii_chart"]

_MARKERS = "ox+*#@%&"


def ascii_chart(
    rows: Sequence[dict],
    x: str,
    y: str,
    group_by: str,
    width: int = 60,
    height: int = 16,
    title: str = "",
) -> str:
    """Render rows as an ASCII scatter/line chart.

    Parameters mirror :func:`repro.experiments.report.format_series`:
    ``x`` and ``y`` name numeric columns, ``group_by`` splits rows into
    series (each gets its own marker, shown in the legend).  X positions
    use the *rank* of each distinct x value (figure axes in the paper
    are log-spaced in m; rank spacing matches that reading).
    """
    rows = [r for r in rows if r.get(y) not in (None, "")]
    if not rows:
        raise ReproError("no rows to plot")
    if width < 10 or height < 4:
        raise ReproError("chart needs width >= 10 and height >= 4")
    xs = sorted({r[x] for r in rows})
    groups = sorted({r[group_by] for r in rows}, key=_natural_key)
    if len(groups) > len(_MARKERS):
        raise ReproError(f"at most {len(_MARKERS)} series supported")
    ys = [float(r[y]) for r in rows]
    y_lo, y_hi = min(ys), max(ys)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    grid = [[" "] * width for _ in range(height)]
    x_pos = {v: int(round(i * (width - 1) / max(len(xs) - 1, 1)))
             for i, v in enumerate(xs)}

    def y_row(value: float) -> int:
        frac = (value - y_lo) / (y_hi - y_lo)
        return (height - 1) - int(round(frac * (height - 1)))

    for gi, g in enumerate(groups):
        marker = _MARKERS[gi]
        for r in rows:
            if r[group_by] != g:
                continue
            col = x_pos[r[x]]
            row = y_row(float(r[y]))
            cell = grid[row][col]
            # Collisions show as '!' so overplotting is visible.
            grid[row][col] = marker if cell == " " else "!"

    axis_w = max(len(f"{y_hi:.3g}"), len(f"{y_lo:.3g}"))
    lines = []
    if title:
        lines.append(title)
    for i, row in enumerate(grid):
        if i == 0:
            label = f"{y_hi:.3g}".rjust(axis_w)
        elif i == height - 1:
            label = f"{y_lo:.3g}".rjust(axis_w)
        else:
            label = " " * axis_w
        lines.append(f"{label} |" + "".join(row))
    lines.append(" " * axis_w + " +" + "-" * width)
    # X tick labels at first/mid/last rank; the last label right-aligns
    # so it never truncates at the chart edge.
    ticks = [" "] * width
    for i in (0, len(xs) // 2, len(xs) - 1):
        pos = x_pos[xs[i]]
        text = f"{xs[i]}"
        if pos + len(text) > width:
            pos = max(0, width - len(text))
        for j, ch in enumerate(text):
            ticks[pos + j] = ch
    lines.append(" " * axis_w + "  " + "".join(ticks))
    legend = "   ".join(
        f"{_MARKERS[i]} = {g}" for i, g in enumerate(groups)
    )
    lines.append(" " * axis_w + "  " + f"[x: {x}, y: {y}]  {legend}")
    return "\n".join(lines)
