"""Shared utilities: deterministic RNG streams, time axis, statistics, tables.

These helpers are deliberately dependency-light; everything in
:mod:`repro` that needs randomness, time bucketing, or summary statistics
goes through this package so that simulations are reproducible from a
single seed and analyses share one notion of a "5-minute window".
"""

from repro.util.rng import RngStreams, derive_seed
from repro.util.timeutil import (
    DAY,
    FIVE_MINUTES,
    HOUR,
    MINUTE,
    Timeline,
    Window,
    day_start,
    format_ts,
    iter_days,
    iter_windows,
    month_key,
    parse_ts,
    window_start,
)
from repro.util.stats import (
    Histogram,
    pearson,
    percentile,
    ratio,
)
from repro.util.tables import Table, format_count, format_pct

__all__ = [
    "RngStreams",
    "derive_seed",
    "DAY",
    "FIVE_MINUTES",
    "HOUR",
    "MINUTE",
    "Timeline",
    "Window",
    "day_start",
    "format_ts",
    "iter_days",
    "iter_windows",
    "month_key",
    "parse_ts",
    "window_start",
    "Histogram",
    "pearson",
    "percentile",
    "ratio",
    "Table",
    "format_count",
    "format_pct",
]
