"""Fixed-width text tables for benchmark output.

Every benchmark regenerates one of the paper's tables or figures and
prints it side-by-side with the paper's reported values; this module
renders those rows consistently.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence


def format_count(n: float) -> str:
    """Format a count with thousands separators (``4,039,485``)."""
    return f"{int(round(n)):,}"


def format_pct(fraction: float, digits: int = 2) -> str:
    """Format a fraction as a percentage string (``1.21%``)."""
    return f"{fraction * 100:.{digits}f}%"


def format_si(n: float) -> str:
    """Compact SI-style magnitude (``21.8K``, ``7M``) as in Table 2."""
    for threshold, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "K")):
        if abs(n) >= threshold:
            value = n / threshold
            if value >= 100:
                return f"{value:.0f}{suffix}"
            return f"{value:.3g}{suffix}"
    return f"{n:.3g}"


def format_bps(bits_per_second: float) -> str:
    """Format a traffic volume (``1.4 Gbps``, ``247 Mbps``)."""
    for threshold, suffix in ((1e9, "Gbps"), (1e6, "Mbps"), (1e3, "Kbps")):
        if abs(bits_per_second) >= threshold:
            return f"{bits_per_second / threshold:.3g} {suffix}"
    return f"{bits_per_second:.3g} bps"


class Table:
    """A minimal fixed-width table with a title and optional caption.

    >>> t = Table(["month", "#attacks"], title="Monthly")
    >>> t.add_row(["2020-11", 2550])
    >>> print(t.render())  # doctest: +SKIP
    """

    def __init__(self, headers: Sequence[str], title: Optional[str] = None):
        self.headers = [str(h) for h in headers]
        self.title = title
        #: a line printed under the table, set after construction.
        self.caption: Optional[str] = None
        self.rows: List[List[str]] = []

    def add_row(self, cells: Sequence[Any]) -> None:
        row = [self._format(c) for c in cells]
        if len(row) != len(self.headers):
            raise ValueError(
                f"row has {len(row)} cells, table has {len(self.headers)} columns")
        self.rows.append(row)

    def add_separator(self) -> None:
        self.rows.append(["---"] * len(self.headers))

    @staticmethod
    def _format(cell: Any) -> str:
        if isinstance(cell, float):
            return f"{cell:.4g}"
        if isinstance(cell, int) and not isinstance(cell, bool):
            return format_count(cell)
        return str(cell)

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines: List[str] = []
        if self.title:
            lines.append(self.title)
        rule = "-+-".join("-" * w for w in widths)
        lines.append(" | ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        lines.append(rule)
        for row in self.rows:
            if row[0] == "---":
                lines.append(rule)
                continue
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        if self.caption:
            lines.append(self.caption)
        return "\n".join(lines)
