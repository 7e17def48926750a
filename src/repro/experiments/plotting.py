"""Terminal (ASCII) plotting for the paper's figures.

The figure generators in :mod:`repro.experiments.figures` return
:class:`~repro.experiments.reporting.TableResult` data series; these
helpers render such series as terminal plots so the *shape* of each
figure — the ER decay of Fig. 6a, the per-round cost of Fig. 6b, the
HR curve of Fig. 7 — is visible at a glance without a plotting stack
(no matplotlib offline).

All functions return plain strings; nothing is printed here.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

__all__ = ["line_plot", "bar_chart", "render_figure"]

#: Glyphs assigned to successive series in multi-series plots.
_SERIES_GLYPHS = "*o+x@#%&"


def _scale(value: float, low: float, high: float, size: int) -> int:
    """Map ``value`` in [low, high] to a cell index in [0, size - 1]."""
    if high <= low:
        return 0
    ratio = (value - low) / (high - low)
    return min(size - 1, max(0, int(round(ratio * (size - 1)))))


def _axis_limits(values: Sequence[float]) -> tuple[float, float]:
    low, high = min(values), max(values)
    if math.isclose(low, high):
        pad = abs(low) * 0.1 or 1.0
        return low - pad, high + pad
    return low, high


def _render_grid(
    grid: list[list[str]],
    x_low: float,
    x_high: float,
    y_low: float,
    y_high: float,
    *,
    title: str,
    x_label: str,
    y_label: str,
    legend: Mapping[str, str] | None = None,
) -> str:
    height = len(grid)
    lines: list[str] = []
    if title:
        lines.append(title)
    if legend:
        lines.append(
            "  ".join(f"{glyph} {name}" for name, glyph in legend.items())
        )
    y_top = f"{y_high:.6g}"
    y_bottom = f"{y_low:.6g}"
    margin = max(len(y_top), len(y_bottom), len(y_label))
    for row_idx, row in enumerate(grid):
        if row_idx == 0:
            label = y_top
        elif row_idx == height - 1:
            label = y_bottom
        elif row_idx == height // 2:
            label = y_label
        else:
            label = ""
        lines.append(f"{label:>{margin}} |" + "".join(row))
    width = len(grid[0])
    lines.append(" " * margin + " +" + "-" * width)
    x_left = f"{x_low:.6g}"
    x_right = f"{x_high:.6g}"
    gap = max(width - len(x_left) - len(x_right), 1)
    lines.append(
        " " * (margin + 2) + x_left + " " * gap + x_right
    )
    if x_label:
        lines.append(" " * (margin + 2) + x_label.center(width))
    return "\n".join(lines)


def line_plot(
    series: Mapping[str, Sequence[tuple[float, float]]],
    *,
    width: int = 60,
    height: int = 16,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render named ``(x, y)`` series on one shared-axis character grid.

    Points of each series are drawn with a per-series glyph and joined
    by linear interpolation along the x axis, so monotone trends and
    crossovers read correctly even at terminal resolution.
    """
    if not series or all(len(points) == 0 for points in series.values()):
        raise ValueError("need at least one non-empty series")
    if width < 8 or height < 4:
        raise ValueError("plot area too small")
    xs = [x for points in series.values() for x, _ in points]
    ys = [y for points in series.values() for _, y in points]
    x_low, x_high = _axis_limits(xs)
    y_low, y_high = _axis_limits(ys)
    grid = [[" "] * width for _ in range(height)]
    legend: dict[str, str] = {}
    for index, (name, points) in enumerate(series.items()):
        glyph = _SERIES_GLYPHS[index % len(_SERIES_GLYPHS)]
        legend[name] = glyph
        ordered = sorted(points)
        # Interpolate between consecutive points, column by column.
        for (x0, y0), (x1, y1) in zip(ordered, ordered[1:]):
            col0 = _scale(x0, x_low, x_high, width)
            col1 = _scale(x1, x_low, x_high, width)
            for col in range(col0, col1 + 1):
                if col1 == col0:
                    y = y1
                else:
                    frac = (col - col0) / (col1 - col0)
                    y = y0 + frac * (y1 - y0)
                row = height - 1 - _scale(y, y_low, y_high, height)
                grid[row][col] = glyph
        for x, y in ordered:  # plot markers last so they win overlaps
            col = _scale(x, x_low, x_high, width)
            row = height - 1 - _scale(y, y_low, y_high, height)
            grid[row][col] = glyph
    return _render_grid(
        grid, x_low, x_high, y_low, y_high,
        title=title, x_label=x_label, y_label=y_label,
        legend=legend if len(series) > 1 else None,
    )


def render_figure(fig_id: str, table) -> str | None:
    """ASCII rendering of a regenerated figure table, when one exists.

    Understands the series layouts produced by
    :mod:`repro.experiments.figures`: ``"6a"`` (ER trend over rounds),
    ``"6b"`` (per-round cost bars) and ``"7"`` (HR vs q). Returns
    ``None`` for figures whose tables are summaries rather than series.
    """
    if fig_id == "6a":
        rounds = [int(col.lstrip("r")) for col in table.headers[1:]]
        series = {
            row[0]: [
                (r, float(cell.split("/")[0]))
                for r, cell in zip(rounds, row[1:])
            ]
            for row in table.rows
        }
        return line_plot(
            series, title="ER@10 over rounds",
            x_label="round", y_label="ER@10 (%)",
        )
    if fig_id == "6b":
        bars = {}
        for row in table.rows:
            for scenario, cell in zip(table.headers[1:], row[1:]):
                bars[f"{row[0]} {scenario}"] = float(cell)
        return bar_chart(bars, title="seconds per round", unit=" s")
    if fig_id == "7":
        points = [(float(row[0]), float(row[1])) for row in table.rows]
        return line_plot(
            {"HR@10": points}, title="HR@10 vs sampling ratio q",
            x_label="q", y_label="HR@10 (%)",
        )
    return None


def bar_chart(
    values: Mapping[str, float],
    *,
    width: int = 48,
    title: str = "",
    unit: str = "",
) -> str:
    """Render labelled horizontal bars (e.g. Fig. 6b's per-round cost)."""
    if not values:
        raise ValueError("need at least one bar")
    top = max(values.values())
    if top < 0:
        raise ValueError("bar values must be non-negative")
    label_width = max(len(label) for label in values)
    lines: list[str] = [title] if title else []
    for label, value in values.items():
        if value < 0:
            raise ValueError("bar values must be non-negative")
        filled = _scale(value, 0.0, top, width) + 1 if top > 0 else 1
        bar = "#" * filled
        suffix = f" {value:.6g}{unit}"
        lines.append(f"{label:>{label_width}} |{bar}{suffix}")
    return "\n".join(lines)
