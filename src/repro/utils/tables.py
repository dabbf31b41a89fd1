"""ASCII table and series formatting for the benchmark harness.

The paper reports results as figures and tables; our benches print the same
rows/series as plain text.  These helpers keep the printing consistent across
every experiment driver and the CLI, including the geometric mean their
normalized-runtime rows end with.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
) -> str:
    """Render ``rows`` under ``headers`` as a fixed-width ASCII table.

    Floats are shown with four significant digits; everything else uses
    ``str``.  Returns the rendered table as a single string (no trailing
    newline) so callers can ``print`` or log it.
    """
    str_rows = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(render_row(list(headers)))
    lines.append("-+-".join("-" * w for w in widths))
    lines.extend(render_row(row) for row in str_rows)
    return "\n".join(lines)


def format_series(
    name: str,
    xs: Sequence[object],
    ys: Sequence[float],
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Render an (x, y) series the way a figure axis would enumerate it."""
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    rows = [(x, y) for x, y in zip(xs, ys)]
    return format_table([x_label, y_label], rows, title=name)


def geometric_mean(values) -> float:
    """Geometric mean (the conventional normalized-runtime average).

    Empty input returns 0.0 — the "no data" sentinel the tables render.
    """
    values = list(values)
    if not values:
        return 0.0
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))
