"""Plain-text reporting of experiment results (tables and ASCII plots)."""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a simple aligned text table."""
    materialised: List[List[str]] = [[_cell(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
            else:
                widths.append(len(cell))
    lines = []
    lines.append("  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in materialised:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def ascii_plot(
    points: Sequence[Tuple[float, float]],
    *,
    width: int = 60,
    height: int = 15,
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Render a crude ASCII scatter/line plot of ``(x, y)`` points.

    Used to eyeball the shape of reproduced figures (e.g. Figure 1) directly
    in a terminal without plotting libraries.
    """
    if not points:
        return "(no data)"
    xs = [point[0] for point in points]
    ys = [point[1] for point in points]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0
    grid = [[" " for _ in range(width)] for _ in range(height)]
    for x, y in points:
        column = int(round((x - x_min) / x_span * (width - 1)))
        row = int(round((y - y_min) / y_span * (height - 1)))
        grid[height - 1 - row][column] = "*"
    lines = ["".join(row) for row in grid]
    header = f"{y_label}: {y_min:.2f} .. {y_max:.2f}   {x_label}: {x_min:.3f} .. {x_max:.3f}"
    return header + "\n" + "\n".join(lines)
