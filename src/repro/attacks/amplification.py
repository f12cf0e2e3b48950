"""The amplification scenario pack: DNS reflection attacks.

The attacker never sends a packet to the victim. It queries a harvested
list of open resolvers with the source address spoofed as the victim,
and each small query elicits a response ``BAF`` (bandwidth amplification
factor) times larger — the victim drowns in UDP/53 *responses*. Two
consequences drive the pack's design ("The Far Side of DNS
Amplification" flavour, see PAPERS.md):

* **no backscatter** — the victim answers nothing, so the RSDoS branch
  is structurally blind to the whole class
  (``Spoofing.AMPLIFIED.telescope_visible`` is False);
* **reflector queries** — amplifier lists go stale, and the stale
  entries that fall inside the darknet receive the attacker's query
  spray, spoofed as the victim. The pack's telescope branch
  (:mod:`repro.telescope.reflector`) infers attacks from that
  signature and feeds them into the join as a second curated feed.

Everything random draws from the ``pack:amplification`` stream family,
so selecting this pack never perturbs the background world build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.attacks.model import (
    Attack,
    AmplificationProfile,
    AttackVector,
    Spoofing,
)
from repro.attacks.packs import ScenarioPack, register_pack
from repro.net.ports import PORT_DNS, PROTO_UDP
from repro.util.timeutil import MINUTE, Window

__all__ = ["AmplificationParams", "AmplificationPack",
           "AmplificationAnalysis"]

#: bytes of one EDNS0 ``ANY`` query — the numerator of the BAF.
QUERY_BYTES = 64
#: on-the-wire MTU ceiling: amplified responses fragment at this size.
FRAGMENT_BYTES = 1400


#: amplifier-list size per attack (open resolvers the attacker sprays;
#: the paper-adjacent harvests run 10^3-10^5).
N_AMPLIFIERS = 6_000
#: mean bandwidth amplification factor (DNS ``ANY`` ~ 28-64).
MEAN_BAF = 32.0
#: lognormal sigma of the per-attack BAF draw.
BAF_SIGMA = 0.35
#: attacker-side query rate sprayed over the list.
QUERY_PPS = 25_000.0
#: fraction of list entries that are stale and fall inside the darknet
#: (the telescope's only view of the attack).
LIST_DARKNET_SHARE = 0.0035
#: query type sent to the amplifiers.
QTYPE = "ANY"
#: attack duration in seconds.
DURATION_S = 1_800


@dataclass(frozen=True)
class AmplificationParams:
    """Knobs of the amplification pack (all fingerprinted)."""

    #: reflection attacks to schedule across the timeline.
    n_attacks: int = 6

    def __post_init__(self) -> None:
        if self.n_attacks < 0:
            raise ValueError("n_attacks must be non-negative")


@dataclass
class AmplificationAnalysis:
    """Validation of the reflector branch against ground truth."""

    n_scheduled: int      # reflector-visible ground-truth attacks
    n_inferred: int       # reflections the darknet branch inferred
    n_matched: int        # scheduled attacks matched by an inferred one
    mean_baf: float

    @property
    def recall(self) -> float:
        return self.n_matched / self.n_scheduled if self.n_scheduled else 0.0


@register_pack
class AmplificationPack(ScenarioPack):
    """DNS reflection/amplification attacks + reflector-query inference."""

    name = "amplification"
    description = ("DNS reflection floods (BAF-amplified, no backscatter) "
                   "inferred from darknet reflector queries")

    @classmethod
    def default_params(cls):
        return AmplificationParams()

    # -- schedule ------------------------------------------------------------

    def generate_attacks(self, world) -> List[Attack]:
        p: AmplificationParams = self.params
        if p.n_attacks == 0:
            return []
        rng = world.rngs.stream("pack:amplification", "schedule")
        victims = sorted(ip for ip in world.directory.nameserver_ips()
                         if ip in world.nameservers_by_ip)
        if not victims:
            return []
        window = world.timeline.window
        span = window.duration - DURATION_S
        attacks: List[Attack] = []
        for _ in range(p.n_attacks):
            victim = rng.choice(victims)
            start = window.start + rng.randrange(max(1, span // MINUTE)) * MINUTE
            baf = max(2.0, MEAN_BAF * math.exp(rng.gauss(0.0, BAF_SIGMA)))
            query_pps = QUERY_PPS * (0.75 + rng.random() * 0.5)
            profile = AmplificationProfile(
                n_amplifiers=N_AMPLIFIERS, mean_baf=baf,
                query_pps=query_pps,
                list_darknet_share=LIST_DARKNET_SHARE, qtype=QTYPE)
            attacks.append(Attack(
                victim_ip=victim,
                window=Window(start, start + DURATION_S),
                vectors=[self._response_vector(query_pps, baf)],
                amplification=profile))
        return attacks

    @staticmethod
    def _response_vector(query_pps: float, baf: float) -> AttackVector:
        """The victim-side flood implied by the reflection: every query
        returns ``baf x QUERY_BYTES`` bytes of UDP/53 responses,
        fragmenting at the MTU."""
        response_bytes = baf * QUERY_BYTES
        n_fragments = max(1, math.ceil(response_bytes / FRAGMENT_BYTES))
        return AttackVector(
            PROTO_UDP, (PORT_DNS,),
            pps=query_pps * n_fragments,
            spoofing=Spoofing.AMPLIFIED,
            packet_bytes=max(1, int(round(response_bytes / n_fragments))))

    # -- telescope -----------------------------------------------------------

    reflector_queries = True

    def observe_darknet(self, world):
        from repro.telescope.darknet import Darknet
        from repro.telescope.reflector import ReflectorFeed, ReflectorSimulator

        simulator = ReflectorSimulator(
            Darknet(),
            jitter_seed=world.rngs.spawn_seed("pack:amplification",
                                              "reflector"))
        baf_of: Dict[int, float] = {
            a.victim_ip: a.amplification.mean_baf
            for a in world.attacks if a.amplification is not None}
        return ReflectorFeed.observe(world.attacks, simulator, baf_of=baf_of)

    # -- analysis ------------------------------------------------------------

    def analyze(self, study) -> Optional[AmplificationAnalysis]:
        feed = study.reflector_feed
        if feed is None:
            return None
        from repro.telescope.reflector import match_reflections

        pairs = match_reflections(study.world.attacks, feed.reflections)
        bafs = [a.amplification.mean_baf for a in study.world.attacks
                if a.amplification is not None]
        return AmplificationAnalysis(
            n_scheduled=len(pairs),
            n_inferred=len(feed.reflections),
            n_matched=sum(1 for _, r in pairs if r is not None),
            mean_baf=sum(bafs) / len(bafs) if bafs else 0.0)

    def report_section(self, study) -> Optional[str]:
        analysis = self.analyze(study)
        if analysis is None:
            return None
        lines = ["Amplification pack (reflector-query branch)",
                 "-------------------------------------------"]
        lines.append(
            f"  scheduled reflections: {analysis.n_scheduled} "
            f"(mean BAF {analysis.mean_baf:.1f})")
        lines.append(
            f"  inferred at darknet:   {analysis.n_inferred} "
            f"({analysis.n_matched} matched, "
            f"recall {analysis.recall:.0%})")
        return "\n".join(lines)
