"""ASCII rendering of experiment tables and figure series."""

from __future__ import annotations

from typing import Sequence

__all__ = ["render_table", "render_series", "pct"]


def pct(value: float, digits: int = 1) -> str:
    """Format a fraction as a signed percentage string."""
    return f"{value * 100:+.{digits}f}%"


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render a fixed-width table with a rule under the header."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(w) for h, w in zip(cells[0], widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in cells[1:]:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_series(
    series: dict[str, Sequence[float]],
    fmt: str = "{:+.1%}",
    points: int = 11,
    title: str | None = None,
) -> str:
    """Render sorted distribution series at evenly spaced percentiles.

    The textual analogue of the paper's Fig. 7/9 distribution plots:
    one row per percentile, one column per configuration.
    """
    names = list(series)
    lines = []
    if title:
        lines.append(title)
    header = "  runs  " + "  ".join(f"{n:>14}" for n in names)
    lines.append(header)
    lines.append("-" * len(header))
    for j in range(points):
        pct_x = j / (points - 1) if points > 1 else 0.0
        row = [f"{pct_x:6.0%}"]
        for name in names:
            values = series[name]
            idx = min(len(values) - 1, int(round(pct_x * (len(values) - 1))))
            row.append(f"{fmt.format(values[idx]):>14}")
        lines.append("  ".join(row))
    return "\n".join(lines)
