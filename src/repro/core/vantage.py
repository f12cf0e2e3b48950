"""Multi-vantage measurement (the paper's §9 future direction).

OpenINTEL and the reactive platform probe from a single vantage point in
the Netherlands, which §4.3 lists as a limitation: anycast catchment can
mask an ongoing attack in other regions ("catchment can mask ongoing
attacks in specific geographic regions"). This module implements the
proposed extension — probing the same nameservers from several regions —
and the analysis that quantifies how much a single vantage misses.

A :class:`VantagePoint` is a region-bound transport over the same world:
for unicast servers only the propagation RTT differs, but for anycast
servers each vantage lands in its *own catchment site*, with that site's
attack share and capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.dns.name import DomainName
from repro.dns.rr import RRType
from repro.dns.server import ServerReply
from repro.world.capacity import LoadBreakdown
from repro.world.simulation import World

#: Extra propagation RTT (ms) from each probing region to a server whose
#: base RTT was calibrated for the Netherlands vantage. Rough great-
#: circle surrogates; precision is irrelevant to the catchment effect.
REGION_RTT_OFFSET_MS: Dict[str, float] = {
    "eu-west": 0.0,
    "eu-east": 12.0,
    "us-east": 75.0,
    "us-west": 130.0,
    "ap-south": 140.0,
    "ap-east": 190.0,
    "sa": 180.0,
    "af": 120.0,
    "oceania": 250.0,
    "me": 90.0,
}


class VantagePoint:
    """A measurement location: transport bound to a probing region."""

    def __init__(self, world: World, region: str):
        if region not in REGION_RTT_OFFSET_MS:
            raise ValueError(f"unknown region: {region}")
        self.world = world
        self.region = region
        self._rtt_offset = REGION_RTT_OFFSET_MS[region]
        self._rng = world.rngs.stream("vantage", region)

    def load_at(self, ns, ts: float) -> LoadBreakdown:
        """Like :meth:`World.load_at` but routed by this vantage's
        catchment for anycast servers."""
        if ns.anycast is None:
            return self.world.load_at(ns, ts)
        site = ns.anycast.site_for_region(self.region)
        return self.world.site_load_at(ns.ip, ts, site.catchment_weight,
                                       site.capacity_pps)

    def transport(self, ns_ip: int, qname: DomainName, qtype: RRType,
                  ts: float) -> ServerReply:
        """Region-bound transport, usable wherever World.transport is."""
        return self.world._reply(ns_ip, ts, self._rng, self._rtt_offset,
                                 self.load_at)


@dataclass
class VantageObservation:
    """One vantage's view of a nameserver at one instant."""

    region: str
    answered_share: float


@dataclass
class CatchmentDisagreement:
    """How differently the vantages saw one (nameserver, instant)."""

    ns_ip: int
    ts: int
    observations: List[VantageObservation] = field(default_factory=list)

    @property
    def shares(self) -> List[float]:
        return [o.answered_share for o in self.observations]

    @property
    def max_disagreement(self) -> float:
        """Largest gap in availability across vantages — nonzero means a
        single vantage would have mis-estimated the attack's reach."""
        shares = self.shares
        if not shares:
            return 0.0
        return max(shares) - min(shares)

    @property
    def masked_from(self) -> List[str]:
        """Regions that saw the server as (mostly) healthy while another
        vantage saw it (mostly) dead — the §4.3 masking effect."""
        if self.max_disagreement < 0.5:
            return []
        return [o.region for o in self.observations
                if o.answered_share > 0.8]


class MultiVantageProber:
    """Probes nameservers from several vantage points simultaneously."""

    def __init__(self, world: World, regions: Sequence[str] = (
            "eu-west", "us-east", "ap-east")):
        if not regions:
            raise ValueError("at least one region required")
        self.world = world
        self.vantages = [VantagePoint(world, region) for region in regions]

    def probe(self, ns_ip: int, ts: int, n_probes: int = 20
              ) -> CatchmentDisagreement:
        """Probe one nameserver ``n_probes`` times from every vantage."""
        if n_probes < 1:
            raise ValueError("n_probes must be >= 1")
        qname = DomainName("probe.invalid")
        result = CatchmentDisagreement(ns_ip=ns_ip, ts=ts)
        for vantage in self.vantages:
            answered = sum(
                vantage.transport(ns_ip, qname, RRType.NS, ts).answered
                for _ in range(n_probes))
            result.observations.append(VantageObservation(
                region=vantage.region,
                answered_share=answered / n_probes))
        return result

    def survey_attack(self, attack, n_probes: int = 20
                      ) -> CatchmentDisagreement:
        """Probe an attack's victim at the attack midpoint."""
        mid = (attack.start + attack.end) // 2 if hasattr(attack, "start") \
            else (attack.window.start + attack.window.end) // 2
        victim = attack.victim_ip
        return self.probe(victim, mid, n_probes)


def masking_analysis(world: World, feed, regions: Sequence[str] = (
        "eu-west", "us-east", "ap-east"), n_probes: int = 20,
        max_attacks: Optional[int] = 200) -> List[CatchmentDisagreement]:
    """§9's promised insight: for every DNS attack in the feed, compare
    what the vantages saw; disagreements are attacks a single vantage
    would have mis-characterized."""
    ns_ips = world.directory.nameserver_ips()
    prober = MultiVantageProber(world, regions)
    out = []
    count = 0
    for attack in feed.attacks:
        if attack.victim_ip not in ns_ips:
            continue
        out.append(prober.survey_attack(attack, n_probes))
        count += 1
        if max_attacks is not None and count >= max_attacks:
            break
    return out
