"""Intensity and duration correlations (§6.4-§6.5, Figures 9-10).

The paper's headline negative result: telescope-inferred intensity does
NOT predict DNS impact (low Pearson r), because handling capacity and
resilience deployment — not attack size — decide the outcome, and the
telescope misses invisible vectors. Durations are bimodal (15 min / 1 h)
and high impact concentrates there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.events import AttackEvent
from repro.util.stats import bimodal_modes, pearson, spearman
from repro.util.timeutil import HOUR, MINUTE


@dataclass
class CorrelationAnalysis:
    """Figures 9 and 10 in numbers."""

    n_events: int = 0
    #: Pearson/Spearman of log-intensity (max ppm) vs log-impact.
    intensity_pearson: float = 0.0
    intensity_spearman: float = 0.0
    #: Pearson of inferred attacker count vs impact (paper: none).
    attackers_pearson: float = 0.0
    #: intensity modes in telescope ppm (paper: ~50 and ~6000).
    ppm_modes: List[float] = field(default_factory=list)
    #: duration modes in seconds (paper: ~15 min and ~1 h).
    duration_modes: List[float] = field(default_factory=list)
    duration_pearson: float = 0.0
    #: the longest event with impact >= 10x (the Contabo outlier).
    longest_high_impact: Optional[Tuple[str, int, float]] = None

    def summary(self) -> str:
        return (f"r(intensity, impact)={self.intensity_pearson:+.3f}, "
                f"r(duration, impact)={self.duration_pearson:+.3f}, "
                f"ppm modes={[round(m, 1) for m in self.ppm_modes]}, "
                f"duration modes={[round(m / 60, 1) for m in self.duration_modes]} min")


def analyze_correlation(events: Sequence[AttackEvent]) -> CorrelationAnalysis:
    """Compute the §6.4/§6.5 intensity and duration statistics."""
    out = CorrelationAnalysis()
    intensities: List[float] = []
    impacts: List[float] = []
    attackers: List[float] = []
    durations: List[float] = []
    longest: Optional[Tuple[str, int, float]] = None
    for event in events:
        # The window-mean is the stable per-event statistic at reduced
        # population scale (thin 5-minute buckets make peaks noisy).
        impact = event.mean_impact
        if impact is None or impact <= 0:
            continue
        out.n_events += 1
        intensities.append(math.log10(max(event.intensity_ppm, 1e-3)))
        impacts.append(math.log10(impact))
        attackers.append(math.log10(max(event.attack.n_unique_sources, 1)))
        durations.append(float(event.duration_s))
        if impact >= 10.0 and (longest is None
                               or event.duration_s > longest[1]):
            longest = (event.company, event.duration_s, impact)
    if len(impacts) >= 2:
        out.intensity_pearson = pearson(intensities, impacts)
        out.intensity_spearman = spearman(intensities, impacts)
        out.attackers_pearson = pearson(attackers, impacts)
        out.duration_pearson = pearson(
            [math.log10(max(d, 1.0)) for d in durations], impacts)
    out.ppm_modes = bimodal_modes(
        [event.intensity_ppm for event in events
         if event.intensity_ppm > 0])
    out.duration_modes = bimodal_modes(
        [float(e.duration_s) for e in events if e.duration_s > 0])
    out.longest_high_impact = longest
    return out


def attack_duration_modes(attacks) -> List[float]:
    """Duration modes (seconds) over a full attack population — the
    Figure 10 bimodality is a property of the attack landscape, not just
    of the event subset."""
    return bimodal_modes([float(a.duration_s) for a in attacks
                          if a.duration_s > 0])


def attack_intensity_modes(attacks) -> List[float]:
    """Telescope ppm modes over a full attack population (§6.4's ~50 and
    ~6000 ppm bimodality)."""
    return bimodal_modes([a.max_ppm for a in attacks if a.max_ppm > 0])


def duration_impact_buckets(events: Sequence[AttackEvent]
                            ) -> List[Tuple[str, int, int]]:
    """Figure 10's view: (duration bucket, events, high-impact events)."""
    buckets = (
        ("<15 min", 0, 15 * MINUTE),
        ("15-45 min", 15 * MINUTE, 45 * MINUTE),
        ("45-90 min", 45 * MINUTE, 90 * MINUTE),
        ("1.5-4 h", 90 * MINUTE, 4 * HOUR),
        ("4-12 h", 4 * HOUR, 12 * HOUR),
        (">12 h", 12 * HOUR, 10 ** 9),
    )
    rows = []
    for label, lo, hi in buckets:
        selected = [e for e in events if lo <= e.duration_s < hi]
        high = [e for e in selected
                if e.mean_impact is not None and e.mean_impact >= 10.0]
        rows.append((label, len(selected), len(high)))
    return rows
