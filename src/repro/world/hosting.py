"""Hosting providers and nameserver deployments.

Builds the provider landscape the domain population delegates to. The
deployment spectrum matches what the paper's resilience analysis (§6.6)
distinguishes: anycast vs unicast, one vs many /24 prefixes, one vs many
ASNs — plus the named analog providers whose case studies the paper
documents (TransIP: three unicast nameservers on three /24s behind one
ASN; mil.ru: three nameservers on a single /24; nic.ru: a secondary-NS
service; the mega-anycast public clouds).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.anycast.deployment import AnycastDeployment
from repro.dns.name import DomainName
from repro.dns.server import NameserverId
from repro.net.asn import AS, Organization
from repro.net.ip import IPv4Prefix
from repro.topology.generator import GeneratedTopology
from repro.topology.internet import InternetTopology
from repro.util.rng import derive_seed

# Baseline RTT (ms) from the OpenINTEL vantage point (Netherlands) to a
# unicast server in each country.
_COUNTRY_RTT_MS: Dict[str, float] = {
    "NL": 8.0, "DE": 14.0, "FR": 16.0, "AT": 18.0, "GB": 12.0,
    "ES": 28.0, "SE": 22.0, "IT": 24.0, "PL": 26.0, "TR": 45.0,
    "US": 90.0, "CA": 95.0, "BR": 110.0, "MX": 120.0,
    "RU": 45.0, "JP": 130.0, "IN": 125.0, "CN": 140.0, "KR": 135.0,
    "AU": 160.0, "ZA": 105.0,
}
_DEFAULT_RTT_MS = 70.0
_ANYCAST_RTT_MS = 12.0  # nearest-site RTT from the vantage


class ProfileKind(enum.Enum):
    """Deployment archetypes spanning the paper's resilience spectrum."""

    MEGA_ANYCAST = "mega_anycast"
    LARGE_ANYCAST = "large_anycast"
    PARTIAL_ANYCAST = "partial_anycast"
    MULTI_PREFIX_UNICAST = "multi_prefix_unicast"
    SINGLE_PREFIX_UNICAST = "single_prefix_unicast"
    SELF_HOSTED = "self_hosted"
    PUBLIC_RESOLVER = "public_resolver"


@dataclass(frozen=True)
class DeploymentProfile:
    """Structural parameters of a provider's nameserver fleet."""

    kind: ProfileKind
    n_nameservers: int
    n_prefixes: int
    n_asns: int = 1
    anycast_sites: int = 0          # 0 = unicast
    anycast_ns: int = 0             # how many NS are anycast (partial)
    server_capacity_pps: float = 50_000.0
    site_capacity_pps: float = 150_000.0
    #: /24 uplink bandwidth (bits) shared by co-located unicast servers.
    link_bps: float = 10e9

    def __post_init__(self) -> None:
        if self.n_nameservers < 1:
            raise ValueError("a provider needs at least one nameserver")
        if self.n_prefixes < 1 or self.n_prefixes > self.n_nameservers:
            raise ValueError("n_prefixes must be within [1, n_nameservers]")
        if self.n_asns < 1 or self.n_asns > self.n_prefixes:
            raise ValueError("n_asns must be within [1, n_prefixes]")
        if self.anycast_ns > self.n_nameservers:
            raise ValueError("anycast_ns cannot exceed n_nameservers")

    @property
    def is_anycast(self) -> bool:
        return self.anycast_sites > 0 and self.anycast_ns == self.n_nameservers

    @property
    def is_partial_anycast(self) -> bool:
        return self.anycast_sites > 0 and 0 < self.anycast_ns < self.n_nameservers


@dataclass
class Nameserver:
    """One authoritative nameserver of a provider."""

    nsid: NameserverId
    provider_name: str
    asn: int
    capacity_pps: float
    base_rtt_ms: float
    link_bps: float = 10e9
    anycast: Optional[AnycastDeployment] = None
    #: True for addresses that are actually public resolvers / dead ends
    #: (misconfiguration targets) rather than real authoritatives.
    is_misconfig_target: bool = False
    answers_queries: bool = True

    @property
    def ip(self) -> int:
        return self.nsid.ip

    @property
    def host(self) -> DomainName:
        return self.nsid.host

    @property
    def is_anycast(self) -> bool:
        return self.anycast is not None


@dataclass
class HostingProvider:
    """A DNS hosting provider: org, ASes, nameserver fleet, market share."""

    name: str
    org: Organization
    asns: Tuple[int, ...]
    profile: DeploymentProfile
    nameservers: List[Nameserver] = field(default_factory=list)
    weight: float = 1.0
    tld_preference: Optional[Tuple[str, float]] = None  # (tld, share)
    partners: List[str] = field(default_factory=list)   # secondary providers

    @property
    def ns_ips(self) -> Tuple[int, ...]:
        return tuple(sorted(ns.ip for ns in self.nameservers))

    @property
    def slash24s(self) -> Tuple[int, ...]:
        return tuple(sorted({ns.nsid.slash24 for ns in self.nameservers}))

    @property
    def slug(self) -> str:
        return "".join(c if c.isalnum() else "-" for c in self.name.lower()).strip("-")


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def _rtt_for(country: str, rng: random.Random) -> float:
    base = _COUNTRY_RTT_MS.get(country, _DEFAULT_RTT_MS)
    return max(2.0, rng.gauss(base, base * 0.08))


def build_provider(internet: InternetTopology, rng: random.Random,
                   name: str, org: Organization, ases: Sequence[AS],
                   profile: DeploymentProfile, weight: float,
                   ns_domain: Optional[str] = None,
                   tld_preference: Optional[Tuple[str, float]] = None,
                   ) -> HostingProvider:
    """Allocate prefixes and wire up a provider's nameserver fleet.

    Nameservers are spread round-robin across ``n_prefixes`` /24s, which
    are themselves spread round-robin across the provider's ASes —
    exactly the structural variables Figures 11-13 stratify by.
    """
    if len(ases) < profile.n_asns:
        raise ValueError(f"{name}: profile needs {profile.n_asns} ASes, got {len(ases)}")
    used_ases = list(ases[: profile.n_asns])
    prefixes: List[IPv4Prefix] = []
    for i in range(profile.n_prefixes):
        asys = used_ases[i % len(used_ases)]
        prefixes.append(internet.allocate(asys, 24))
    ns_domain = ns_domain or f"{_slugify(name)}-dns.net"
    provider = HostingProvider(
        name=name, org=org, asns=tuple(a.number for a in used_ases),
        profile=profile, weight=weight, tld_preference=tld_preference)
    country = org.country
    for i in range(profile.n_nameservers):
        prefix = prefixes[i % len(prefixes)]
        asys = used_ases[i % len(used_ases)]
        ip = prefix.network | (10 + i)
        host = DomainName(f"ns{i + 1}.{ns_domain}")
        if profile.is_anycast or (profile.is_partial_anycast and i < profile.anycast_ns):
            deployment = AnycastDeployment.build(
                seed=derive_seed(rng.getrandbits(32), name, str(i)),
                n_sites=profile.anycast_sites,
                per_site_capacity_pps=profile.site_capacity_pps)
            base_rtt = max(3.0, rng.gauss(_ANYCAST_RTT_MS, 3.0))
        else:
            deployment = None
            base_rtt = _rtt_for(country, rng)
        provider.nameservers.append(Nameserver(
            nsid=NameserverId(host, ip),
            provider_name=name,
            asn=internet.origin_asn(ip) or asys.number,
            capacity_pps=profile.server_capacity_pps,
            base_rtt_ms=base_rtt,
            link_bps=profile.link_bps,
            anycast=deployment,
        ))
    return provider


def _slugify(name: str) -> str:
    return "".join(c if c.isalnum() else "-" for c in name.lower()).strip("-")


# Analog provider specs: (name, profile, weight, tld_preference).
# Weights are relative market shares of the domain population.
def analog_provider_specs() -> List[Tuple[str, DeploymentProfile, float,
                                          Optional[Tuple[str, float]]]]:
    mega = DeploymentProfile(ProfileKind.MEGA_ANYCAST, n_nameservers=4,
                             n_prefixes=4, anycast_sites=30, anycast_ns=4,
                             site_capacity_pps=2_000_000.0)
    large = DeploymentProfile(ProfileKind.LARGE_ANYCAST, n_nameservers=4,
                              n_prefixes=4, anycast_sites=12, anycast_ns=4,
                              site_capacity_pps=600_000.0)
    partial = DeploymentProfile(ProfileKind.PARTIAL_ANYCAST, n_nameservers=4,
                                n_prefixes=4, anycast_sites=8, anycast_ns=2,
                                site_capacity_pps=300_000.0,
                                server_capacity_pps=80_000.0)
    multi = DeploymentProfile(ProfileKind.MULTI_PREFIX_UNICAST,
                              n_nameservers=3, n_prefixes=3,
                              server_capacity_pps=80_000.0)
    small = DeploymentProfile(ProfileKind.SINGLE_PREFIX_UNICAST,
                              n_nameservers=2, n_prefixes=1,
                              server_capacity_pps=20_000.0, link_bps=1e9)
    # TransIP: three unicast NS, three /24s, one ASN (paper §5.1.1);
    # capacity 50 Kpps reproduces the December (partial impairment) vs
    # March (20% timeouts) contrast given the reported attack rates.
    transip = DeploymentProfile(ProfileKind.MULTI_PREFIX_UNICAST,
                                n_nameservers=3, n_prefixes=3,
                                server_capacity_pps=50_000.0)
    return [
        ("Cloudflare", mega, 0.13, None),
        ("Google", mega, 0.10, None),
        ("GoDaddy", large, 0.05, None),
        ("Amazon", large, 0.08, None),
        ("Microsoft", large, 0.05, None),
        ("OVH", partial, 0.05, None),
        ("Hetzner", multi, 0.04, None),
        ("Fastly", large, 0.02, None),
        ("Unified Layer", multi, 0.04, None),
        ("TransIP", transip, 0.04, ("nl", 0.66)),
        ("nic.ru", multi, 0.02, ("ru", 0.8)),
        ("Beeline RU", small, 0.008, ("ru", 0.9)),
        ("Euskaltel", small, 0.010, None),
        ("NForce B.V.", small, 0.010, None),
        ("Co-Co NL", small, 0.010, None),
        ("NMU Group", small, 0.010, None),
        ("My Lock De", small, 0.010, None),
        ("DigiHosting NL", small, 0.010, None),
        ("Apple Russia", small, 0.010, ("ru", 0.9)),
        ("ITandTEL", small, 0.010, None),
        ("Linode", multi, 0.01, None),
        ("Contabo", small, 0.010, None),
        ("Birbir", small, 0.004, None),
        ("Pendc", small, 0.003, None),
    ]


def build_analog_providers(gen: GeneratedTopology, rng: random.Random
                           ) -> List[HostingProvider]:
    providers = []
    for name, profile, weight, tld_pref in analog_provider_specs():
        asys = gen.analog_as[name]
        providers.append(build_provider(
            gen.internet, rng, name, asys.org, [asys], profile, weight,
            tld_preference=tld_pref))
    return providers


def build_filler_providers(gen: GeneratedTopology, rng: random.Random,
                           n: int, zipf_alpha: float) -> List[HostingProvider]:
    """Mid-market providers with a rank-dependent profile mix: higher
    ranks anycast, the tail single-prefix unicast."""
    providers = []
    filler_as = [a for a in gen.filler_as]
    for rank in range(n):
        asys = filler_as[rank % len(filler_as)]
        share = 1.0 / ((rank + 3) ** zipf_alpha)
        if rank < max(2, n // 10):
            profile = DeploymentProfile(
                ProfileKind.LARGE_ANYCAST, n_nameservers=4, n_prefixes=4,
                anycast_sites=10, anycast_ns=4, site_capacity_pps=1_000_000.0)
        elif rank < n // 4:
            profile = DeploymentProfile(
                ProfileKind.PARTIAL_ANYCAST, n_nameservers=3, n_prefixes=3,
                anycast_sites=6, anycast_ns=1, site_capacity_pps=250_000.0,
                server_capacity_pps=60_000.0)
        elif rank < n // 2:
            profile = DeploymentProfile(
                ProfileKind.MULTI_PREFIX_UNICAST,
                n_nameservers=rng.choice((2, 3, 4)), n_prefixes=2,
                server_capacity_pps=rng.choice((40_000.0, 60_000.0, 100_000.0)))
        else:
            profile = DeploymentProfile(
                ProfileKind.SINGLE_PREFIX_UNICAST,
                n_nameservers=rng.choice((2, 3)), n_prefixes=1,
                server_capacity_pps=rng.choice((8_000.0, 15_000.0, 30_000.0)),
                link_bps=rng.choice((1e9, 2e9)))
        providers.append(build_provider(
            gen.internet, rng, f"Hosting-{rank:03d}", asys.org, [asys],
            profile, weight=share * 0.35))
    return providers


def build_selfhosted_providers(gen: GeneratedTopology, rng: random.Random,
                               n: int) -> List[HostingProvider]:
    """The long tail: tiny self-hosted deployments (1-3 NS, one /24,
    single-digit capacity), each serving a handful of domains. These are
    the NSSets that fail hard in Figure 7."""
    providers = []
    filler_as = [a for a in gen.filler_as]
    for i in range(n):
        asys = rng.choice(filler_as)
        n_ns = rng.choice((1, 2, 2, 3))
        profile = DeploymentProfile(
            ProfileKind.SELF_HOSTED, n_nameservers=n_ns, n_prefixes=1,
            server_capacity_pps=rng.choice((2_000.0, 5_000.0, 10_000.0, 20_000.0)),
            link_bps=1e9)
        providers.append(build_provider(
            gen.internet, rng, f"SelfHost-{i:04d}", asys.org, [asys],
            profile, weight=rng.uniform(0.0001, 0.001)))
    return providers
