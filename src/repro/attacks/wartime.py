"""The wartime scenario pack: correlated geopolitical attack waves.

The paper's §5.2 case studies (mil.ru, RZD) are two hand-scripted
snapshots of a much broader phenomenon: after February 2022, DDoS
against Russian state and infrastructure targets arrived in *waves* —
many organizations of one country hit in the same few days, repeatedly.
This pack generalizes the scripted pair: it enriches the world with
additional target-country sector organizations (government, banking,
media, transport) and schedules correlated attack waves across every
provider whose organization carries the target country code — which
picks up the scripted mil.ru/RZD providers too, when scenarios are
installed.

Attacks mix spoofing classes the way the paper's §2.1 taxonomy does:
a ``REFLECTED_SHARE`` of each wave's floods are spoofed-as-victim
(telescope-invisible), exercising the visibility-limitations analysis
at campaign scale.

All randomness draws from ``pack:wartime`` streams; selecting the pack
never perturbs the background build.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.attacks.model import Attack, AttackVector, Spoofing
from repro.attacks.packs import ScenarioPack, register_pack
from repro.net.ports import PORT_DNS, PROTO_UDP
from repro.util.timeutil import DAY, HOUR, MINUTE, Window

__all__ = ["WartimeParams", "WartimePack", "WartimeWave", "WartimeAnalysis"]

#: sector names used for the enrichment organizations.
SECTORS = ("gov", "bank", "media", "transport", "energy")


#: organizations of this country code are wave targets.
TARGET_COUNTRY = "RU"
#: extra sector organizations/providers installed into the world.
N_EXTRA_ORGS = 4
#: number of correlated attack waves.
N_WAVES = 3
#: length of one wave in days.
WAVE_DAYS = 2
#: quiet days between waves.
GAP_DAYS = 9
#: peak flood rate per victim nameserver (pps).
INTENSITY_PPS = 60_000.0
#: share of each wave's floods that are reflected (spoofed-as-victim,
#: telescope-invisible) rather than randomly spoofed.
REFLECTED_SHARE = 0.4


@dataclass(frozen=True)
class WartimeParams:
    """Knobs of the wartime pack (all fingerprinted)."""

    #: first wave starts this many days into the timeline; ``None``
    #: centers the campaign on the timeline's final quarter (the
    #: February-2022 flavour of the paper window).
    start_day: Optional[int] = None


@dataclass
class WartimeWave:
    """One wave of the campaign timeline."""

    index: int
    start: int
    end: int
    n_attacks: int
    n_orgs: int
    spoofed_visible: int   # attacks with a randomly-spoofed vector


@dataclass
class WartimeAnalysis:
    """The per-wave campaign timeline."""

    target_country: str
    waves: List[WartimeWave]

    @property
    def n_attacks(self) -> int:
        return sum(w.n_attacks for w in self.waves)


@register_pack
class WartimePack(ScenarioPack):
    """Correlated attack waves against one country's organizations."""

    name = "wartime"
    description = ("correlated geopolitical attack waves with "
                   "target-country org enrichment (mil.ru/RZD "
                   "generalized)")

    @classmethod
    def default_params(cls):
        return WartimeParams()

    # -- world enrichment ----------------------------------------------------

    def install_world(self, world, gen) -> None:
        """Add target-country sector orgs and self-hosted providers."""
        from repro.dns.name import DomainName
        from repro.world.domains import _delegation_for
        from repro.world.hosting import (DeploymentProfile, ProfileKind,
                                         build_provider)

        rng = world.rngs.stream("pack:wartime", "install")
        internet = world.internet
        cc = TARGET_COUNTRY.lower()
        for i in range(N_EXTRA_ORGS):
            sector = SECTORS[i % len(SECTORS)]
            org = internet.add_org(
                f"{TARGET_COUNTRY} {sector} #{i + 1}",
                country=TARGET_COUNTRY)
            asys = internet.add_as(org, number=210_000 + i,
                                   country=TARGET_COUNTRY)
            profile = DeploymentProfile(
                ProfileKind.SELF_HOSTED,
                n_nameservers=2 + (i % 2), n_prefixes=1,
                server_capacity_pps=float(rng.choice((20_000, 30_000, 50_000))),
                link_bps=1e9)
            name = f"{TARGET_COUNTRY}-{sector}-{i + 1}"
            provider = build_provider(
                internet, rng, name, org, [asys], profile, weight=0.0,
                ns_domain=f"{sector}{i + 1}.{cc}")
            world.add_provider(provider)
            world.directory.add(
                DomainName(f"{sector}{i + 1}.{cc}"), provider,
                _delegation_for(provider, None, f"{sector}{i + 1}.{cc}"))

    # -- schedule ------------------------------------------------------------

    def _target_providers(self, world) -> List:
        return [prov for name, prov in sorted(world.providers.items())
                if prov.org is not None
                and prov.org.country == TARGET_COUNTRY]

    def _wave_starts(self, timeline) -> List[int]:
        """Each wave's first instant: ``start_day`` days into the
        timeline, or the campaign centered on its final quarter."""
        first = self.params.start_day
        if first is None:
            n_days = max(1, timeline.window.duration // DAY)
            campaign_days = N_WAVES * WAVE_DAYS + (N_WAVES - 1) * GAP_DAYS
            first = max(0, int(n_days * 0.75) - campaign_days // 2)
        return [timeline.window.start
                + (first + wave * (WAVE_DAYS + GAP_DAYS)) * DAY
                for wave in range(N_WAVES)]

    def generate_attacks(self, world) -> List[Attack]:
        rng = world.rngs.stream("pack:wartime", "schedule")
        providers = self._target_providers(world)
        if not providers:
            return []
        timeline = world.timeline
        attacks: List[Attack] = []
        for wave, wave_start in enumerate(self._wave_starts(timeline)):
            for provider in providers:
                # Waves escalate: later waves hit harder and longer.
                scale = 1.0 + 0.35 * wave
                offset = rng.randrange(0, WAVE_DAYS * DAY - 8 * HOUR, MINUTE)
                duration = rng.randrange(2 * HOUR, 8 * HOUR, MINUTE)
                start = wave_start + offset
                end = start + int(duration * scale)
                if not (start in timeline and end <= timeline.end):
                    continue
                reflected = rng.random() < REFLECTED_SHARE
                for ns in provider.nameservers:
                    rate = INTENSITY_PPS * scale \
                        * (0.8 + rng.random() * 0.4)
                    if reflected:
                        vectors = [AttackVector(
                            PROTO_UDP, (PORT_DNS,), rate,
                            Spoofing.REFLECTED, 1400)]
                    else:
                        vectors = [AttackVector.udp_flood(PORT_DNS, rate)]
                    attacks.append(Attack(
                        victim_ip=ns.ip, window=Window(start, end),
                        vectors=vectors,
                        spoof_pool_size=None if reflected
                        else rng.randrange(500_000, 5_000_000)))
        return attacks

    # -- analysis ------------------------------------------------------------

    def _wave_windows(self, world) -> List[Window]:
        # Escalating durations can spill past the nominal wave days.
        return [Window(start, start + (WAVE_DAYS + 1) * DAY)
                for start in self._wave_starts(world.timeline)]

    def analyze(self, study) -> WartimeAnalysis:
        providers = self._target_providers(study.world)
        target_ips = {ns.ip for prov in providers
                      for ns in prov.nameservers}
        ip_org = {ns.ip: prov.org.name for prov in providers
                  for ns in prov.nameservers}
        waves: List[WartimeWave] = []
        for i, window in enumerate(self._wave_windows(study.world)):
            hits = [a for a in study.world.attacks
                    if a.victim_ip in target_ips
                    and a.window.start < window.end
                    and window.start < a.window.end]
            waves.append(WartimeWave(
                index=i, start=window.start, end=window.end,
                n_attacks=len(hits),
                n_orgs=len({ip_org[a.victim_ip] for a in hits}),
                spoofed_visible=sum(1 for a in hits
                                    if a.telescope_visible)))
        return WartimeAnalysis(target_country=TARGET_COUNTRY, waves=waves)

    def report_section(self, study) -> Optional[str]:
        analysis = self.analyze(study)
        lines = [f"Wartime pack ({analysis.target_country} waves)",
                 "-----------------------------------------------"]
        for w in analysis.waves:
            lines.append(
                f"  wave {w.index + 1}: {w.n_attacks} attacks on "
                f"{w.n_orgs} orgs ({w.spoofed_visible} telescope-visible)")
        return "\n".join(lines)
