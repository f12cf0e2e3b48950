"""Resilience-technique efficacy (§6.6, Figures 11-13).

Stratifies attack-event impact by the three structural variables the
paper analyzes: the census anycast label (full / partial / unicast),
AS diversity, and /24 prefix diversity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.events import AttackEvent
from repro.util.stats import percentile, ratio


@dataclass
class GroupStats:
    """Impact statistics of one stratum."""

    label: str
    n_events: int = 0
    impacts: List[float] = field(default_factory=list)
    n_failing: int = 0

    @property
    def median_impact(self) -> Optional[float]:
        return percentile(self.impacts, 50) if self.impacts else None

    @property
    def max_impact(self) -> Optional[float]:
        return max(self.impacts) if self.impacts else None

    @property
    def over_10x_share(self) -> float:
        return ratio(sum(1 for x in self.impacts if x >= 10.0),
                     len(self.impacts))

    @property
    def over_100x(self) -> int:
        return sum(1 for x in self.impacts if x >= 100.0)

    @property
    def failing_share(self) -> float:
        return ratio(self.n_failing, self.n_events)

    def add(self, event: AttackEvent) -> None:
        self.n_events += 1
        # Strata statistics use the measurement-weighted window mean:
        # at reduced population scale the per-bucket peak is dominated
        # by small-sample noise, which would smear every stratum.
        if event.mean_impact is not None:
            self.impacts.append(event.mean_impact)
        if event.has_failures:
            self.n_failing += 1


@dataclass
class ResilienceAnalysis:
    """All three stratifications."""

    by_anycast: Dict[str, GroupStats] = field(default_factory=dict)
    by_asn_count: Dict[str, GroupStats] = field(default_factory=dict)
    by_prefix_count: Dict[str, GroupStats] = field(default_factory=dict)

    def anycast(self, label: str) -> GroupStats:
        return self.by_anycast.setdefault(label, GroupStats(label))

    def asn(self, label: str) -> GroupStats:
        return self.by_asn_count.setdefault(label, GroupStats(label))

    def prefix(self, label: str) -> GroupStats:
        return self.by_prefix_count.setdefault(label, GroupStats(label))

    # -- paper claims -----------------------------------------------------------

    def anycast_over_100x(self) -> int:
        """Paper: no anycast NSSet saw a 100-fold increase."""
        stats = self.by_anycast.get("anycast")
        return stats.over_100x if stats else 0


_ASN_LABELS = {1: "1 ASN", 2: "2 ASNs"}
_PREFIX_LABELS = {1: "1 /24", 2: "2 /24s"}


def _asn_label(n: int) -> str:
    return _ASN_LABELS.get(n, "3+ ASNs")


def _prefix_label(n: int) -> str:
    return _PREFIX_LABELS.get(n, "3+ /24s")


def analyze_resilience(events: Sequence[AttackEvent]) -> ResilienceAnalysis:
    """Stratify event impact by anycast label, AS and prefix diversity
    (Figures 11-13)."""
    out = ResilienceAnalysis()
    for event in events:
        info = event.info
        out.anycast(info.anycast_label).add(event)
        out.asn(_asn_label(info.n_asns)).add(event)
        out.prefix(_prefix_label(info.n_slash24)).add(event)
    return out


def complete_failure_prefix_shares(events: Sequence[AttackEvent]
                                   ) -> Dict[str, float]:
    """§6.6.3: among complete-failure events, the share on 1 / 2 / 3+
    prefixes (paper: most on one, ~30% on two, ~10% on three+)."""
    counts: Dict[str, int] = {}
    total = 0
    for event in events:
        if event.failure_rate >= 0.98:
            label = _prefix_label(event.info.n_slash24)
            counts[label] = counts.get(label, 0) + 1
            total += 1
    return {label: ratio(count, total) for label, count in sorted(counts.items())}
