"""The paper's impact metric (Equation 1) and per-window impact series.

``Impact_on_RTT = avgRTT(5 min) / avgRTT(day before)``. The day-before
baseline minimizes error from infrastructure changes (§4.1; the paper
evaluated week/month baselines and found similar results — the ablation
bench reproduces that comparison).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.openintel.storage import MeasurementStore
from repro.util.timeutil import DAY, Window, day_start


def impact_on_rtt(avg_rtt_5min: Optional[float],
                  baseline_rtt: Optional[float]) -> Optional[float]:
    """Equation 1; None when either side is unmeasurable."""
    if avg_rtt_5min is None or baseline_rtt is None or baseline_rtt <= 0:
        return None
    if not (math.isfinite(avg_rtt_5min) and math.isfinite(baseline_rtt)):
        return None
    return avg_rtt_5min / baseline_rtt


@dataclass
class ImpactPoint:
    """One 5-minute bucket of one NSSet during an analysis window."""

    ts: int
    n: int
    ok: int
    timeouts: int
    servfails: int
    avg_rtt: Optional[float]
    impact: Optional[float]

    @property
    def failure_rate(self) -> float:
        return (self.n - self.ok) / self.n if self.n else 0.0


@dataclass
class ImpactSeries:
    """The 5-minute impact series of one NSSet over a window.

    ``min_bucket_n`` guards the impact statistics against tiny-bucket
    noise: a bucket whose average is computed from one or two queries
    can spike to a 1000x "impact" on a single unlucky retransmission,
    which is measurement noise, not infrastructure impairment. Buckets
    below the floor still contribute to the failure counts.
    """

    nsset_id: int
    window: Window
    baseline_rtt: Optional[float]
    points: List[ImpactPoint] = field(default_factory=list)
    min_bucket_n: int = 1
    #: True when this series was built on impaired data: the baseline
    #: day was missing (a prior clean day substituted) and/or corrupt
    #: 5-minute buckets were skipped. Consumers must surface the flag.
    degraded: bool = False
    #: corrupt buckets skipped while building the series.
    n_corrupt: int = 0

    @property
    def n_measured(self) -> int:
        return sum(p.n for p in self.points)

    @property
    def n_failed(self) -> int:
        return sum(p.n - p.ok for p in self.points)

    @property
    def n_timeouts(self) -> int:
        return sum(p.timeouts for p in self.points)

    @property
    def n_servfails(self) -> int:
        return sum(p.servfails for p in self.points)

    @property
    def failure_rate(self) -> float:
        n = self.n_measured
        return self.n_failed / n if n else 0.0

    def _qualified(self) -> List[ImpactPoint]:
        return [p for p in self.points
                if p.impact is not None and p.n >= self.min_bucket_n]

    @property
    def max_impact(self) -> Optional[float]:
        """Peak Equation-1 impact over qualified buckets (None when no
        bucket clears the sample floor)."""
        impacts = [p.impact for p in self._qualified()]
        return max(impacts) if impacts else None

    @property
    def mean_impact(self) -> Optional[float]:
        """Measurement-weighted mean impact over *all* buckets.

        The weighting makes this the overall-window average, which stays
        stable even when individual 5-minute buckets hold one or two
        samples (the situation for small NSSets at reduced scale).
        """
        points = [p for p in self.points if p.impact is not None]
        total = sum(p.n for p in points)
        if not total:
            return None
        return sum(p.impact * p.n for p in points) / total

    @property
    def impact(self) -> Optional[float]:
        """The event-level impact statistic: the qualified-bucket peak
        when the NSSet is measured densely enough to have one, otherwise
        the weighted window mean."""
        candidates = [x for x in (self.mean_impact, self.max_impact)
                      if x is not None]
        return max(candidates) if candidates else None


#: How far past the nominal horizon the degraded-baseline search walks
#: when every in-horizon day is missing (lost OpenINTEL days).
BASELINE_FALLBACK_DAYS = 7


def impact_series(store: MeasurementStore, nsset_id: int, window: Window,
                  baseline_kind: str = "day",
                  min_bucket_n: int = 1,
                  baseline_fallback_days: int = BASELINE_FALLBACK_DAYS
                  ) -> ImpactSeries:
    """Build the impact series of a NSSet over ``window``.

    ``baseline_kind`` selects the §4.1 baseline: ``day`` (default),
    ``week`` or ``month`` — the average of the daily averages over that
    many preceding days (used by the ablation bench).

    Degrades instead of failing on impaired data: a missing baseline
    day falls back to the nearest prior clean day (up to
    ``baseline_fallback_days`` further back) and corrupt 5-minute
    buckets are skipped; either path sets ``series.degraded``.
    """
    return _impact_series(store, store, nsset_id, window, baseline_kind,
                          min_bucket_n, baseline_fallback_days)


def _impact_series(bucket_store: MeasurementStore,
                   baseline_store: MeasurementStore, nsset_id: int,
                   window: Window, baseline_kind: str, min_bucket_n: int,
                   baseline_fallback_days: int) -> ImpactSeries:
    """The series of ``bucket_store``'s 5-minute aggregates of a NSSet
    over ``window``, against the §4.1 baseline read from
    ``baseline_store``."""
    baseline, fell_back = compute_baseline_degraded(
        baseline_store, nsset_id, window.start, baseline_kind,
        baseline_fallback_days)
    series = ImpactSeries(nsset_id=nsset_id, window=window,
                          baseline_rtt=baseline, min_bucket_n=min_bucket_n,
                          degraded=fell_back)
    for ts, agg in bucket_store.buckets_in(nsset_id, window.start,
                                           window.end):
        if not agg.is_valid:
            series.n_corrupt += 1
            series.degraded = True
            continue
        series.points.append(ImpactPoint(
            ts=ts, n=agg.n, ok=agg.ok_n, timeouts=agg.timeout_n,
            servfails=agg.servfail_n, avg_rtt=agg.avg_rtt,
            impact=impact_on_rtt(agg.avg_rtt, baseline)))
    return series


def compute_baseline(store: MeasurementStore, nsset_id: int, ts: int,
                     kind: str = "day") -> Optional[float]:
    """Baseline average RTT before ``ts`` over a day/week/month horizon.

    Non-finite daily averages (corrupt aggregates) count as missing."""
    horizons = {"day": 1, "week": 7, "month": 30}
    try:
        n_days = horizons[kind]
    except KeyError:
        raise ValueError(f"unknown baseline kind: {kind!r}") from None
    day0 = day_start(ts)
    values = []
    for back in range(1, n_days + 1):
        avg = _clean_day_avg(store, nsset_id, day0 - back * DAY)
        if avg is not None:
            values.append(avg)
    if not values:
        return None
    return sum(values) / len(values)


def compute_baseline_degraded(store: MeasurementStore, nsset_id: int, ts: int,
                              kind: str = "day",
                              max_fallback_days: int = BASELINE_FALLBACK_DAYS
                              ) -> Tuple[Optional[float], bool]:
    """The baseline plus a degradation flag.

    When the nominal horizon holds no clean day (the day before
    vanished — precisely the attack scenarios the paper worries about,
    or a chaos-injected lost day), walks further back, one day at a
    time, to the *nearest prior clean day*. Returns ``(baseline,
    degraded)``; degraded marks a *substituted* baseline. When even the
    fallback finds nothing the result is ``(None, False)``: no data was
    substituted — the series is simply unmeasurable (impacts all None),
    which is also what a clean run produces at the timeline edge.
    """
    baseline = compute_baseline(store, nsset_id, ts, kind)
    if baseline is not None:
        return baseline, False
    horizon = {"day": 1, "week": 7, "month": 30}[kind]
    day0 = day_start(ts)
    for back in range(horizon + 1, horizon + max_fallback_days + 1):
        avg = _clean_day_avg(store, nsset_id, day0 - back * DAY)
        if avg is not None:
            return avg, True
    return None, False


def _clean_day_avg(store: MeasurementStore, nsset_id: int,
                   day: int) -> Optional[float]:
    """A day's average RTT, treating corrupt aggregates as absent."""
    agg = store.day_aggregate(nsset_id, day)
    if agg is None or not agg.is_valid:
        return None
    avg = agg.avg_rtt
    if avg is None or not math.isfinite(avg):
        return None
    return avg
