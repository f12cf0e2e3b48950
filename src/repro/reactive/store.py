"""Reactive probe results and their bridge into the §5/§6 impact path.

The service's workers emit one :class:`ReactiveProbe` per nameserver
probe; a run's report collects them into a :class:`ReactiveStore`,
which answers the §5.2 per-domain availability questions (unresponsive
share during a blackout, first responsive bucket after an attack).
:func:`measurement_store_from_reactive` and
:func:`reactive_impact_series` fold the same probes into the crawl
store's aggregate language, so the §5/§6 impact machinery applies to
reactive data unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.metrics import ImpactSeries, _impact_series
from repro.dns.rcode import ResponseStatus
from repro.openintel.storage import MeasurementStore
from repro.util.timeutil import Window, window_start

__all__ = [
    "REACTIVE_TIMEOUT_RTT_MS",
    "ReactiveProbe",
    "ReactiveStore",
    "measurement_store_from_reactive",
    "reactive_impact_series",
]


@dataclass(frozen=True)
class ReactiveProbe:
    """One probe of one nameserver of one domain."""

    ts: int
    domain_id: int
    ns_ip: int
    answered: bool
    rtt_ms: Optional[float]


class ReactiveStore:
    """Probe results with per-domain availability queries."""

    def __init__(self) -> None:
        self.probes: List[ReactiveProbe] = []
        self._by_domain: Dict[int, List[ReactiveProbe]] = {}
        #: (directory, probe count, folded store) of the last
        #: :func:`reactive_impact_series` fold; ``add`` only appends,
        #: so the count tells whether the fold is current.
        self._fold: Optional[Tuple[object, int, MeasurementStore]] = None

    def add(self, probe: ReactiveProbe) -> None:
        self.probes.append(probe)
        self._by_domain.setdefault(probe.domain_id, []).append(probe)

    def __len__(self) -> int:
        return len(self.probes)

    def domain_probes(self, domain_id: int) -> List[ReactiveProbe]:
        return self._by_domain.get(domain_id, [])

    def availability_series(self, domain_id: int
                            ) -> List[Tuple[int, float, int]]:
        """(bucket_ts, share of probes answered, n probes) per 5-minute
        bucket, in time order."""
        buckets: Dict[int, Tuple[int, int]] = {}
        for probe in self._by_domain.get(domain_id, ()):
            key = window_start(probe.ts)
            answered, total = buckets.get(key, (0, 0))
            buckets[key] = (answered + (1 if probe.answered else 0), total + 1)
        return [(ts, answered / total, total)
                for ts, (answered, total) in sorted(buckets.items())]

    def unresponsive_share(self, domain_id: int, window: Window) -> float:
        """Share of buckets in ``window`` where NO nameserver answered."""
        series = [row for row in self.availability_series(domain_id)
                  if window.contains(row[0])]
        if not series:
            return 0.0
        return sum(1 for _, share, _ in series if share == 0.0) / len(series)

    def first_responsive_after(self, domain_id: int, ts: int) -> Optional[int]:
        """First bucket at/after ``ts`` with any nameserver answering."""
        for bucket_ts, share, _ in self.availability_series(domain_id):
            if bucket_ts >= ts and share > 0.0:
                return bucket_ts
        return None


#: RTT recorded for an unanswered probe. The value itself never reaches
#: an analysis (non-OK rows only count toward timeout shares) — it just
#: has to pass the store's ingest validity gate.
REACTIVE_TIMEOUT_RTT_MS = 5_000.0


def measurement_store_from_reactive(store: ReactiveStore, directory
                                    ) -> MeasurementStore:
    """Fold reactive probes into a :class:`MeasurementStore`.

    Each probe becomes one dense measurement row of the probed domain's
    NSSet: answered probes as ``OK`` with their RTT, unanswered ones as
    ``TIMEOUT``. The result speaks the same aggregate language as the
    OpenINTEL crawl store, so the §5/§6 impact machinery (5-minute
    buckets, timeout shares, ``Impact_on_RTT``) applies to reactive
    data unchanged.
    """
    out = MeasurementStore()
    for probe in store.probes:
        nsset_id = directory[probe.domain_id].nsset_id
        if probe.answered:
            out.add_fast(nsset_id, probe.ts, ResponseStatus.OK,
                         probe.rtt_ms, True)
        else:
            out.add_fast(nsset_id, probe.ts, ResponseStatus.TIMEOUT,
                         REACTIVE_TIMEOUT_RTT_MS, True)
    return out


def reactive_impact_series(store: ReactiveStore, directory, nsset_id: int,
                           window: Window,
                           baseline_store: MeasurementStore) -> ImpactSeries:
    """The §5 RTT-impact series of a NSSet, measured by reactive probes.

    The reactive platform only probes *during* attacks, so it holds no
    quiet-day history of its own — the §4.1 day-before baseline comes from
    ``baseline_store`` (normally the OpenINTEL crawl store of the same
    study) while the in-window 5-minute buckets come from the probes.
    Everything downstream of :class:`ImpactSeries` (mean/peak impact,
    event statistics, Figure 8) then works on reactive data as-is.
    The probes are folded once per store and directory, and again only
    after more probes arrive.
    """
    fold = store._fold
    if fold is None or fold[0] is not directory or fold[1] != len(store):
        fold = store._fold = (directory, len(store),
                              measurement_store_from_reactive(store,
                                                              directory))
    # The day-before baseline; every bucket qualifies.
    return _impact_series(fold[2], baseline_store, nsset_id, window, "day", 1)
