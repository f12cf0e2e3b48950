"""Performance-impact analyses: Figures 7-8 and Table 6 (§6.3).

Resolution failures (99% of events see none; failures split ~92%
timeout / 8% SERVFAIL), the failure-rate-vs-size scatter, the
Equation-1 impact distribution by NSSet size, and the most-affected
companies ranking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.core.events import AttackEvent
from repro.util.stats import ratio


@dataclass
class FailureScatterPoint:
    """One Figure 7 dot: an event with failures."""

    n_measured: int
    failure_rate: float
    n_domains_hosted: int
    company: str
    anycast_label: str
    single_prefix: bool
    single_asn: bool


@dataclass
class FailureAnalysis:
    """§6.3.1 aggregates."""

    n_events: int = 0
    n_failing_events: int = 0
    n_failed_queries: int = 0
    n_timeout_queries: int = 0
    n_servfail_queries: int = 0
    scatter: List[FailureScatterPoint] = field(default_factory=list)
    #: failing events with a unicast NSSet / single ASN / single /24.
    failing_unicast: int = 0
    failing_single_asn: int = 0
    failing_single_prefix: int = 0
    #: complete failures (>= ~100% of measured queries failing).
    complete_failures: int = 0
    complete_by_prefix_count: Dict[int, int] = field(default_factory=dict)

    @property
    def failing_share(self) -> float:
        """Share of events with any failure (paper: ~1%)."""
        return ratio(self.n_failing_events, self.n_events)

    @property
    def timeout_share_of_failures(self) -> float:
        return ratio(self.n_timeout_queries, self.n_failed_queries)

    @property
    def servfail_share_of_failures(self) -> float:
        return ratio(self.n_servfail_queries, self.n_failed_queries)

    @property
    def unicast_share_of_failing(self) -> float:
        return ratio(self.failing_unicast, self.n_failing_events)

    @property
    def single_asn_share_of_failing(self) -> float:
        return ratio(self.failing_single_asn, self.n_failing_events)

    @property
    def single_prefix_share_of_failing(self) -> float:
        return ratio(self.failing_single_prefix, self.n_failing_events)


def analyze_failures(events: Sequence[AttackEvent]) -> FailureAnalysis:
    """Aggregate the §6.3.1 failure statistics over the events; an event
    with failure rate >= 0.98 counts as a complete resolution failure."""
    out = FailureAnalysis()
    for event in events:
        out.n_events += 1
        series = event.series
        if series.n_failed == 0:
            continue
        out.n_failing_events += 1
        out.n_failed_queries += series.n_failed
        out.n_timeout_queries += series.n_timeouts
        out.n_servfail_queries += series.n_servfails
        info = event.info
        if info.is_unicast:
            out.failing_unicast += 1
        if info.single_asn:
            out.failing_single_asn += 1
        if info.single_prefix:
            out.failing_single_prefix += 1
        out.scatter.append(FailureScatterPoint(
            n_measured=series.n_measured,
            failure_rate=series.failure_rate,
            n_domains_hosted=info.n_domains,
            company=info.company,
            anycast_label=info.anycast_label,
            single_prefix=info.single_prefix,
            single_asn=info.single_asn))
        if series.failure_rate >= 0.98:
            out.complete_failures += 1
            n_prefix = min(info.n_slash24, 3)
            out.complete_by_prefix_count[n_prefix] = \
                out.complete_by_prefix_count.get(n_prefix, 0) + 1
    return out


@dataclass
class ImpactAnalysis:
    """§6.3.2: the Equation-1 impact distribution (Figure 8)."""

    n_events: int = 0
    n_with_impact: int = 0       # events with a computable impact
    over_10x: int = 0
    over_100x: int = 0
    #: (hosted-domain decade, impact decade) -> count: Figure 8's plane.
    grid: Dict[Tuple[int, int], int] = field(default_factory=dict)
    #: peak impact per hosted-domain decade.
    peak_by_size: Dict[int, float] = field(default_factory=dict)
    #: worst *mean* (window-average) impact per hosted-domain decade —
    #: the stable statistic for the "very large deployments only saw
    #: 2-3x" comparison.
    mean_by_size: Dict[int, float] = field(default_factory=dict)

    @property
    def over_10x_share(self) -> float:
        return ratio(self.over_10x, self.n_with_impact)

    @property
    def over_100x_share_of_10x(self) -> float:
        return ratio(self.over_100x, self.over_10x)


def analyze_impact(events: Sequence[AttackEvent]) -> ImpactAnalysis:
    """Build the Figure 8 impact distribution over the events."""
    out = ImpactAnalysis()
    for event in events:
        out.n_events += 1
        impact = event.impact
        if impact is None:
            continue
        out.n_with_impact += 1
        if impact >= 10.0:
            out.over_10x += 1
        if impact >= 100.0:
            out.over_100x += 1
        size = max(event.n_domains_hosted, 1)
        size_decade = int(math.floor(math.log10(size)))
        impact_decade = int(math.floor(math.log10(max(impact, 1e-3))))
        key = (size_decade, impact_decade)
        out.grid[key] = out.grid.get(key, 0) + 1
        if impact > out.peak_by_size.get(size_decade, 0.0):
            out.peak_by_size[size_decade] = impact
        mean = event.mean_impact
        if mean is not None and mean > out.mean_by_size.get(size_decade, 0.0):
            out.mean_by_size[size_decade] = mean
    return out


def top_companies_by_impact(events: Sequence[AttackEvent], n: int = 10
                            ) -> List[Tuple[str, float]]:
    """Table 6: companies ranked by their worst event's Impact_on_RTT.

    Uses the measurement-weighted window *mean* (the statistic the
    scenario calibration targets); the peak-based view is available via
    :func:`analyze_impact`'s per-event grid.
    """
    best: Dict[str, float] = {}
    for event in events:
        impact = event.mean_impact
        if impact is None:
            continue
        company = event.company
        if impact > best.get(company, 0.0):
            best[company] = impact
    ranked = sorted(best.items(), key=lambda kv: kv[1], reverse=True)
    return ranked[:n]
