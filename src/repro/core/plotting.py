"""ASCII chart rendering for experiment results.

The paper's artefacts are figures; the tables produced by
:mod:`repro.core.report` carry the numbers, and this module adds terminal
charts for the *shapes*: line charts for speedup-vs-block-size curves
(Figures 7, 8, 9a, 12) and grouped bar charts for the storage/scheduler
comparison (Figure 10).  Pure text, no plotting stack.
"""

from __future__ import annotations

import math
from typing import Mapping

_MARKERS = "ox+*#@%&"


def _format_tick(value: float) -> str:
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 1000 or magnitude < 0.01:
        return f"{value:.1e}"
    if magnitude >= 10:
        return f"{value:.0f}"
    return f"{value:.2f}"


def line_chart(
    series: Mapping[str, Mapping[float, float | None]],
    title: str = "",
    width: int = 64,
    height: int = 16,
    log_x: bool = False,
    y_label: str = "",
) -> str:
    """Render one or more (x -> y) series as an ASCII line chart.

    ``None`` y-values (e.g. OOM points) are skipped.  X positions are
    scaled linearly (or logarithmically with ``log_x``, handy for the
    paper's power-of-two block sizes); each series gets its own marker.
    """
    cleaned = {
        label: {x: y for x, y in points.items() if y is not None}
        for label, points in series.items()
    }
    cleaned = {label: pts for label, pts in cleaned.items() if pts}
    if not cleaned:
        return f"{title}\n(no data)"
    xs = sorted({x for pts in cleaned.values() for x in pts})
    ys = [y for pts in cleaned.values() for y in pts.values()]
    if log_x and min(xs) <= 0:
        raise ValueError("log_x requires positive x values")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    def x_col(x: float) -> int:
        if log_x:
            position = (math.log(x) - math.log(x_lo)) / (
                math.log(x_hi) - math.log(x_lo)
            )
        else:
            position = (x - x_lo) / (x_hi - x_lo)
        return round(position * (width - 1))

    def y_row(y: float) -> int:
        position = (y - y_lo) / (y_hi - y_lo)
        return (height - 1) - round(position * (height - 1))

    grid = [[" "] * width for _ in range(height)]
    for index, (label, points) in enumerate(cleaned.items()):
        marker = _MARKERS[index % len(_MARKERS)]
        for x, y in points.items():
            grid[y_row(y)][x_col(x)] = marker
    lines = []
    if title:
        lines.append(title)
    axis_width = max(len(_format_tick(y_hi)), len(_format_tick(y_lo)))
    for row_index, row in enumerate(grid):
        if row_index == 0:
            tick = _format_tick(y_hi)
        elif row_index == height - 1:
            tick = _format_tick(y_lo)
        else:
            tick = ""
        lines.append(f"{tick.rjust(axis_width)} |{''.join(row)}")
    lines.append(" " * axis_width + " +" + "-" * width)
    left = _format_tick(x_lo)
    right = _format_tick(x_hi)
    pad = width - len(left) - len(right)
    lines.append(" " * (axis_width + 2) + left + " " * max(pad, 1) + right)
    legend = "   ".join(
        f"{_MARKERS[i % len(_MARKERS)]} {label}"
        for i, label in enumerate(cleaned)
    )
    lines.append(f"legend: {legend}")
    if y_label:
        lines.append(f"y: {y_label}")
    return "\n".join(lines)


def bar_chart(
    bars: Mapping[str, float | None],
    title: str = "",
    width: int = 50,
    missing_label: str = "OOM",
) -> str:
    """Render labelled horizontal bars; ``None`` values render as missing."""
    if not bars:
        return f"{title}\n(no data)"
    values = [v for v in bars.values() if v is not None]
    top = max(values) if values else 1.0
    if top <= 0:
        top = 1.0
    label_width = max(len(label) for label in bars)
    lines = [title] if title else []
    for label, value in bars.items():
        if value is None:
            lines.append(f"{label.rjust(label_width)} | {missing_label}")
            continue
        filled = round(value / top * width)
        lines.append(
            f"{label.rjust(label_width)} |{'#' * filled}"
            f" {_format_tick(value)}"
        )
    return "\n".join(lines)


def speedup_chart(
    speedups_by_block: Mapping[str, Mapping[float, float | None]],
    title: str,
) -> str:
    """A line chart preset for the figures' speedup-vs-block-size panels."""
    return line_chart(
        speedups_by_block,
        title=title,
        log_x=True,
        y_label="GPU speedup over CPU (x)",
    )
