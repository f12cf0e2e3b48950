"""Time axis for the study: epoch seconds, 5-minute windows, days, months.

The RSDoS feed aggregates in 5-minute *tumbling* windows and OpenINTEL
measures daily, so the whole reproduction shares this module's notion of
window boundaries. All timestamps are UTC epoch seconds (ints); the
analysis period of the paper runs 2020-11-01 .. 2022-03-31.
"""

from __future__ import annotations

import calendar
import time
from dataclasses import dataclass
from typing import Iterator, Tuple

MINUTE = 60
FIVE_MINUTES = 5 * MINUTE
HOUR = 60 * MINUTE
DAY = 24 * HOUR

_TS_FORMAT = "%Y-%m-%d %H:%M"


def parse_ts(text: str) -> int:
    """Parse ``YYYY-MM-DD[ HH:MM[:SS]]`` (UTC) into epoch seconds."""
    text = text.strip()
    for fmt in ("%Y-%m-%d %H:%M:%S", "%Y-%m-%d %H:%M", "%Y-%m-%d"):
        try:
            return int(calendar.timegm(time.strptime(text, fmt)))
        except ValueError:
            continue
    raise ValueError(f"unrecognized timestamp: {text!r}")


def format_ts(ts: int) -> str:
    """Format epoch seconds as ``YYYY-MM-DD HH:MM`` (UTC)."""
    return time.strftime(_TS_FORMAT, time.gmtime(ts))


def window_start(ts: int, width: int = FIVE_MINUTES) -> int:
    """Start of the tumbling window of ``width`` seconds containing ``ts``."""
    if width <= 0:
        raise ValueError("window width must be positive")
    return (int(ts) // width) * width


def day_start(ts: int) -> int:
    """Midnight UTC of the day containing ``ts``."""
    return window_start(ts, DAY)


def month_key(ts: int) -> Tuple[int, int]:
    """(year, month) of the UTC timestamp — the paper's monthly buckets."""
    tm = time.gmtime(ts)
    return tm.tm_year, tm.tm_mon


def iter_windows(start: int, end: int, width: int = FIVE_MINUTES) -> Iterator[int]:
    """Yield window start times covering ``[start, end)``."""
    ts = window_start(start, width)
    while ts < end:
        yield ts
        ts += width


def iter_days(start: int, end: int) -> Iterator[int]:
    """Yield day start times covering ``[start, end)``."""
    return iter_windows(start, end, DAY)


@dataclass(frozen=True)
class Window:
    """A half-open time interval ``[start, end)`` in epoch seconds."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("window end precedes start")

    @property
    def duration(self) -> int:
        return self.end - self.start

    def contains(self, ts: int) -> bool:
        return self.start <= ts < self.end

    def expand(self, before: int = 0, after: int = 0) -> "Window":
        return Window(self.start - before, self.end + after)

    def buckets(self, width: int = FIVE_MINUTES) -> Iterator[int]:
        """Tumbling-window starts that intersect this interval."""
        return iter_windows(self.start, max(self.end, self.start + 1), width)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{format_ts(self.start)} .. {format_ts(self.end)})"


class Timeline:
    """The study's analysis interval with convenience accessors.

    The paper analyses 2020-11-01 through 2022-03-31 (inclusive), i.e. a
    17-month window that lines up with the quarterly anycast censuses.
    """

    PAPER_START = "2020-11-01"
    PAPER_END_EXCLUSIVE = "2022-04-01"

    def __init__(self, start: str = PAPER_START, end_exclusive: str = PAPER_END_EXCLUSIVE):
        self.start = parse_ts(start)
        self.end = parse_ts(end_exclusive)
        if self.end <= self.start:
            raise ValueError("timeline end must follow start")

    @property
    def window(self) -> Window:
        return Window(self.start, self.end)

    def days(self) -> Iterator[int]:
        return iter_days(self.start, self.end)

    def months(self) -> Iterator[Tuple[int, int]]:
        """Yield (year, month) keys covering the timeline in order."""
        seen = []
        for day in self.days():
            key = month_key(day)
            if not seen or seen[-1] != key:
                seen.append(key)
                yield key

    def __contains__(self, ts: int) -> bool:
        return self.start <= ts < self.end
