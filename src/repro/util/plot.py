"""ASCII plotting for figure regeneration in a terminal.

The paper's figures are scatter plots, time series, and histograms; the
benchmarks print their numeric content, and these helpers additionally
*draw* the shapes so a reader can eyeball who-wins/crossover structure
without leaving the terminal. Log axes are supported because nearly
every figure in the paper spans decades.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple


def _scale(value: float, lo: float, hi: float, steps: int,
           log: bool) -> int:
    if log:
        value, lo, hi = (math.log10(max(value, 1e-12)),
                         math.log10(max(lo, 1e-12)),
                         math.log10(max(hi, 1e-12)))
    if hi <= lo:
        return 0
    frac = (value - lo) / (hi - lo)
    return min(steps - 1, max(0, int(frac * steps)))


def _axis_label(value: float, log: bool) -> str:
    if log:
        return f"1e{math.log10(max(value, 1e-12)):+.0f}"
    if abs(value) >= 1000:
        return f"{value:.2g}"
    return f"{value:g}"


def ascii_scatter(xs: Sequence[float], ys: Sequence[float],
                  width: int = 60, height: int = 16,
                  log_x: bool = False, log_y: bool = False,
                  x_label: str = "x", y_label: str = "y",
                  title: Optional[str] = None) -> str:
    """Render a scatter plot; overlapping points escalate o -> O -> @."""
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    if not xs:
        return (title or "") + "\n(no data)"
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    grid = [[0] * width for _ in range(height)]
    for x, y in zip(xs, ys):
        col = _scale(x, lo_x, hi_x, width, log_x)
        row = _scale(y, lo_y, hi_y, height, log_y)
        grid[height - 1 - row][col] += 1
    density_chars = {1: "o", 2: "O"}
    lines: List[str] = []
    if title:
        lines.append(title)
    label_width = 8
    for i, row in enumerate(grid):
        if i == 0:
            prefix = _axis_label(hi_y, log_y).rjust(label_width)
        elif i == height - 1:
            prefix = _axis_label(lo_y, log_y).rjust(label_width)
        elif i == height // 2:
            prefix = y_label[:label_width].rjust(label_width)
        else:
            prefix = " " * label_width
        body = "".join(
            " " if c == 0 else density_chars.get(c, "@") for c in row)
        lines.append(f"{prefix} |{body}")
    lines.append(" " * label_width + " +" + "-" * width)
    left = _axis_label(lo_x, log_x)
    right = _axis_label(hi_x, log_x)
    middle = x_label
    pad = width - len(left) - len(right) - len(middle)
    lines.append(" " * (label_width + 2) + left
                 + " " * max(1, pad // 2) + middle
                 + " " * max(1, pad - pad // 2) + right)
    return "\n".join(lines)


def ascii_series(points: Sequence[Tuple[float, float]],
                 width: int = 60, height: int = 12,
                 log_y: bool = False, title: Optional[str] = None) -> str:
    """Render a time series as a column chart of bucket means."""
    if not points:
        return (title or "") + "\n(no data)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    lo_x, hi_x = min(xs), max(xs)
    lo_y = min(ys)
    hi_y = max(ys)
    columns: List[List[float]] = [[] for _ in range(width)]
    for x, y in zip(xs, ys):
        columns[_scale(x, lo_x, hi_x, width, False)].append(y)
    heights = []
    for bucket in columns:
        if not bucket:
            heights.append(None)
            continue
        mean = sum(bucket) / len(bucket)
        heights.append(_scale(mean, lo_y, hi_y, height, log_y) + 1)
    lines: List[str] = []
    if title:
        lines.append(title)
    for level in range(height, 0, -1):
        label = ""
        if level == height:
            label = _axis_label(hi_y, log_y)
        elif level == 1:
            label = _axis_label(lo_y, log_y)
        row = "".join(
            "#" if h is not None and h >= level else
            ("." if h is not None and level == 1 else " ")
            for h in heights)
        lines.append(f"{label.rjust(8)} |{row}")
    lines.append(" " * 8 + " +" + "-" * width)
    return "\n".join(lines)
