"""Attack events: the (inferred attack, NSSet) analysis unit of §6.3.

The paper considers, for each RSDoS-inferred attack on a nameserver
address, every NSSet containing that address with at least five domains
measured during the attack window — 12,691 such events in their data.
Each event carries the measured impact (failure counts, Equation-1
impact) plus the NSSet's structural metadata, which is everything
Figures 7-13 and Table 6 stratify on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.join import ClassifiedAttack, DatasetJoin
from repro.core.metrics import ImpactSeries, impact_series
from repro.core.nsset import NSSetInfo, NSSetMetadata
from repro.openintel.storage import MeasurementStore
from repro.telescope.rsdos import InferredAttack
from repro.util.timeutil import Window


@dataclass
class AttackEvent:
    """One attack observed against one NSSet with enough measurements."""

    attack: InferredAttack
    info: NSSetInfo
    series: ImpactSeries

    @property
    def nsset_id(self) -> int:
        return self.info.nsset_id

    @property
    def n_measured(self) -> int:
        return self.series.n_measured

    @property
    def failure_rate(self) -> float:
        return self.series.failure_rate

    @property
    def has_failures(self) -> bool:
        return self.series.n_failed > 0

    @property
    def degraded(self) -> bool:
        """True when the event's series was built on impaired data (a
        substituted baseline day or skipped corrupt buckets). Impact
        figures for degraded events are estimates, never NaN."""
        return self.series.degraded

    @property
    def max_impact(self) -> Optional[float]:
        return self.series.max_impact

    @property
    def mean_impact(self) -> Optional[float]:
        return self.series.mean_impact

    @property
    def impact(self) -> Optional[float]:
        """The Equation-1 impact of this event (peak when densely
        measured, weighted window mean otherwise)."""
        return self.series.impact

    @property
    def duration_s(self) -> int:
        return self.attack.duration_s

    @property
    def intensity_ppm(self) -> float:
        return self.attack.max_ppm

    @property
    def n_domains_hosted(self) -> int:
        return self.info.n_domains

    @property
    def company(self) -> str:
        return self.info.company

    def __repr__(self) -> str:
        impact = f"{self.max_impact:.1f}x" if self.max_impact else "n/a"
        return (f"AttackEvent(nsset={self.nsset_id}, measured={self.n_measured}, "
                f"fail={self.failure_rate:.1%}, impact={impact})")


#: minimum measured domains for an attack event (paper §6.3's noise
#: threshold).
EVENT_MIN_DOMAINS = 5


def extract_events(join: DatasetJoin, store: MeasurementStore,
                   metadata: NSSetMetadata,
                   min_domains: int = EVENT_MIN_DOMAINS) -> List[AttackEvent]:
    """Extract all qualifying attack events from a join result.

    Only direct nameserver attacks qualify (§6.1 focuses on those), and
    only NSSets with at least ``min_domains`` measurements during the
    attack window (§6.3's noise threshold).
    """
    events: List[AttackEvent] = []
    for classified in join.dns_direct_attacks:
        events.extend(events_for_attack(
            classified, store, metadata, min_domains))
    return events


#: Impact per 5-minute bucket is only meaningful with a few samples;
#: event-level impact statistics use this floor (see ImpactSeries).
EVENT_MIN_BUCKET_N = 3


def events_for_attack(classified: ClassifiedAttack, store: MeasurementStore,
                      metadata: NSSetMetadata, min_domains: int,
                      baseline_kind: str = "day") -> List[AttackEvent]:
    """Events of a single classified attack across its NSSets.

    The ``min_domains`` threshold applies both to the NSSet's hosted
    domains and to the measurements inside the attack window — the
    paper's mil.ru NSSet (3 domains) is a §5 case study but not a §6
    event, exactly as here.
    """
    attack = classified.attack
    window = Window(attack.start, attack.end)
    out: List[AttackEvent] = []
    for nsset_id in classified.nsset_ids:
        info = metadata.info(nsset_id, attack.start)
        if info.n_domains < min_domains:
            continue
        series = impact_series(store, nsset_id, window, baseline_kind,
                               min_bucket_n=EVENT_MIN_BUCKET_N)
        if series.n_measured < min_domains:
            continue
        out.append(AttackEvent(attack=attack, info=info, series=series))
    return out
