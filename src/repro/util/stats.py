"""Summary statistics used across the analysis pipeline.

Implements exactly what the paper needs — Pearson and Spearman
correlation for the intensity/duration analyses (§6.4, §6.5),
percentiles, and the histogram behind the bimodal intensity/duration
modes — without dragging numpy into the hot per-query paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient; 0.0 for degenerate inputs.

    The paper (§6.4) reports *low* Pearson correlation between telescope
    intensity and RTT impact; this is the statistic used there.
    """
    if len(xs) != len(ys):
        raise ValueError("sequences must have equal length")
    n = len(xs)
    if n < 2:
        return 0.0
    mx = sum(xs) / n
    my = sum(ys) / n
    sxy = sxx = syy = 0.0
    for x, y in zip(xs, ys):
        dx = x - mx
        dy = y - my
        sxy += dx * dy
        sxx += dx * dx
        syy += dy * dy
    if sxx <= 0 or syy <= 0:
        return 0.0
    # sqrt each factor separately: sxx * syy can underflow to 0.0 for
    # near-constant inputs even when both factors are positive.
    denominator = math.sqrt(sxx) * math.sqrt(syy)
    if denominator == 0.0:
        return 0.0
    return max(-1.0, min(1.0, sxy / denominator))


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile ``p`` in [0, 100] of ``values``."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= p <= 100:
        raise ValueError("p must be within [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (p / 100.0) * (len(ordered) - 1)
    lo = int(math.floor(rank))
    hi = int(math.ceil(rank))
    if lo == hi:
        return float(ordered[lo])
    frac = rank - lo
    value = float(ordered[lo] * (1 - frac) + ordered[hi] * frac)
    # Interpolation can drift a few ULPs past the neighbours; clamp so
    # the result always lies within the sample range.
    return min(max(value, float(ordered[lo])), float(ordered[hi]))


def ratio(part: float, whole: float) -> float:
    """``part / whole`` that tolerates a zero denominator."""
    return part / whole if whole else 0.0


@dataclass
class Histogram:
    """Fixed-width linear histogram over ``[lo, hi)``."""

    lo: float
    hi: float
    bins: int
    counts: List[int] = field(default_factory=list)
    underflow: int = 0
    overflow: int = 0
    #: NaN inputs, counted deterministically instead of crashing the
    #: bin arithmetic (NaN fails every range comparison).
    nan: int = 0

    def __post_init__(self) -> None:
        if self.hi <= self.lo:
            raise ValueError("hi must exceed lo")
        if self.bins <= 0:
            raise ValueError("bins must be positive")
        if not self.counts:
            self.counts = [0] * self.bins

    def add(self, x: float, weight: int = 1) -> None:
        if x != x:  # NaN: outside every bin, tallied on its own
            self.nan += weight
            return
        if x < self.lo:  # -inf lands here
            self.underflow += weight
            return
        if x >= self.hi:  # +inf lands here
            self.overflow += weight
            return
        idx = int((x - self.lo) / (self.hi - self.lo) * self.bins)
        self.counts[min(idx, self.bins - 1)] += weight

    @property
    def total(self) -> int:
        return sum(self.counts) + self.underflow + self.overflow + self.nan

    def bin_edges(self) -> List[Tuple[float, float]]:
        width = (self.hi - self.lo) / self.bins
        return [(self.lo + i * width, self.lo + (i + 1) * width) for i in range(self.bins)]


#: Log-space histogram bins :func:`bimodal_modes` smooths and scans.
MODE_BINS = 40


def bimodal_modes(values: Iterable[float]) -> List[float]:
    """Detect up to two separated modes of a positive-valued sample.

    Bins in log space (attack durations/intensities span decades) and
    returns the centers of the two best-separated local maxima.
    """
    data = [v for v in values if v > 0]
    if not data:
        return []
    lo = math.log10(min(data))
    hi = math.log10(max(data))
    if hi - lo < 1e-9:
        return [data[0]]
    hist = Histogram(lo, hi + 1e-9, MODE_BINS)
    for v in data:
        hist.add(math.log10(v))
    # Local maxima in the smoothed histogram.
    smoothed = _smooth(hist.counts)
    maxima = [
        i
        for i in range(len(smoothed))
        if smoothed[i] > 0
        and (i == 0 or smoothed[i] >= smoothed[i - 1])
        and (i == len(smoothed) - 1 or smoothed[i] >= smoothed[i + 1])
    ]
    maxima.sort(key=lambda i: smoothed[i], reverse=True)
    picked: List[int] = []
    min_separation = max(3, MODE_BINS // 5)
    for i in maxima:
        if all(abs(i - j) >= min_separation for j in picked):
            picked.append(i)
        if len(picked) == 2:
            break
    edges = hist.bin_edges()
    centers = [10 ** ((edges[i][0] + edges[i][1]) / 2) for i in sorted(picked)]
    return centers


def _smooth(counts: Sequence[int]) -> List[float]:
    out = []
    for i in range(len(counts)):
        window = counts[max(0, i - 1): i + 2]
        out.append(sum(window) / len(window))
    return out


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation (robustness companion to Pearson)."""
    if len(xs) != len(ys):
        raise ValueError("sequences must have equal length")
    return pearson(_ranks(xs), _ranks(ys))


def _ranks(values: Sequence[float]) -> List[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg_rank = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = avg_rank
        i = j + 1
    return ranks
