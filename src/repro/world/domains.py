"""The registered-domain population and its delegations.

Domains are assigned to hosting providers by market share (Zipf-ish
weights), with the paper-relevant structure layered in: TransIP's .nl
concentration, a misconfigured tail pointing NS records at public
resolvers (Table 5), and a slice of domains adding a secondary provider
(producing the multi-AS NSSets of Figure 12).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.dns.name import DomainName
from repro.dns.zone import Delegation
from repro.world.hosting import HostingProvider

# Global TLD mix of the measured namespace (single-label suffixes).
TLD_MIX: Tuple[Tuple[str, float], ...] = (
    ("com", 0.40), ("net", 0.08), ("org", 0.07), ("de", 0.08),
    ("nl", 0.06), ("ru", 0.07), ("fr", 0.04), ("info", 0.05),
    ("it", 0.03), ("at", 0.02), ("es", 0.02), ("se", 0.02),
    ("pl", 0.02), ("io", 0.02), ("biz", 0.02),
)
#: share of domains whose NS records point at public resolvers or other
#: nonsense (the Table 5 misconfiguration phenomenon).
MISCONFIG_FRACTION = 0.004
#: share of domains adding a secondary provider (multi-AS NSSets).
MULTI_PROVIDER_FRACTION = 0.06
#: share of TransIP domains whose web content is hosted third-party
#: (paper §5.1.1: ~27%).
TRANSIP_THIRD_PARTY_WEB = 0.27


@dataclass
class DomainRecord:
    """One registered domain and its (static) delegation."""

    domain_id: int
    name: DomainName
    provider_name: str
    delegation: Delegation
    nsset_id: int
    secondary_provider: Optional[str] = None
    misconfig: bool = False
    third_party_web: bool = False

    @property
    def tld(self) -> str:
        return self.name.tld or ""


@dataclass(frozen=True)
class MisconfigTarget:
    """An address misconfigured domains point NS records at."""

    ip: int
    label: str
    weight: float = 1.0


class NSSetRegistry:
    """Interns NSSets (sorted tuples of nameserver IPv4 ints) to ids."""

    def __init__(self) -> None:
        self._ids: Dict[Tuple[int, ...], int] = {}
        self._keys: List[Tuple[int, ...]] = []

    def intern(self, ips: Iterable[int]) -> int:
        key = tuple(sorted(set(int(ip) for ip in ips)))
        nsset_id = self._ids.get(key)
        if nsset_id is None:
            nsset_id = len(self._keys)
            self._ids[key] = nsset_id
            self._keys.append(key)
        return nsset_id

    def ips_of(self, nsset_id: int) -> Tuple[int, ...]:
        return self._keys[nsset_id]

    def __len__(self) -> int:
        return len(self._keys)

    def items(self) -> Iterable[Tuple[int, Tuple[int, ...]]]:
        return enumerate(self._keys)


class DomainDirectory:
    """All domains plus the reverse indexes the join pipeline needs."""

    def __init__(self) -> None:
        self.domains: List[DomainRecord] = []
        self.nssets = NSSetRegistry()
        #: nameserver IP -> ids of domains delegating to it.
        self.by_ns_ip: Dict[int, Set[int]] = {}
        #: nsset_id -> ids of member domains.
        self.by_nsset: Dict[int, Set[int]] = {}
        self.by_name: Dict[DomainName, int] = {}

    def add(self, name, provider: HostingProvider,
            delegation: Delegation, secondary: Optional[str] = None,
            misconfig: bool = False, third_party_web: bool = False
            ) -> DomainRecord:
        name = DomainName(name)
        if name in self.by_name:
            raise ValueError(f"duplicate domain: {name}")
        nsset_id = self.nssets.intern(delegation.nameserver_ips)
        record = DomainRecord(
            domain_id=len(self.domains), name=name,
            provider_name=provider.name, delegation=delegation,
            nsset_id=nsset_id, secondary_provider=secondary,
            misconfig=misconfig, third_party_web=third_party_web)
        self.domains.append(record)
        self.by_name[name] = record.domain_id
        self.by_nsset.setdefault(nsset_id, set()).add(record.domain_id)
        for ip in delegation.nameserver_ips:
            self.by_ns_ip.setdefault(ip, set()).add(record.domain_id)
        return record

    def __len__(self) -> int:
        return len(self.domains)

    def __getitem__(self, domain_id: int) -> DomainRecord:
        return self.domains[domain_id]

    def get_by_name(self, name) -> Optional[DomainRecord]:
        domain_id = self.by_name.get(DomainName(name))
        return self.domains[domain_id] if domain_id is not None else None

    # -- join-pipeline views ----------------------------------------------------

    def nameserver_ips(self) -> Set[int]:
        """Every IPv4 address appearing in an NS delegation — the "is
        this victim DNS infrastructure?" set of the join (§4.2)."""
        return set(self.by_ns_ip)

    def domains_of_ip(self, ip: int) -> Set[int]:
        return self.by_ns_ip.get(ip, set())

    def domain_count_of_ip(self, ip: int) -> int:
        return len(self.by_ns_ip.get(ip, ()))

    def nssets_of_ip(self, ip: int) -> Set[int]:
        """NSSets containing a given nameserver IP."""
        return {self.domains[d].nsset_id for d in self.by_ns_ip.get(ip, ())}

    def domains_of_nsset(self, nsset_id: int) -> Set[int]:
        return self.by_nsset.get(nsset_id, set())


# ---------------------------------------------------------------------------
# Population generation
# ---------------------------------------------------------------------------


class _WeightedPicker:
    """O(log n) weighted choice over a fixed table."""

    def __init__(self, items: Sequence, weights: Sequence[float]):
        if len(items) != len(weights) or not items:
            raise ValueError("items/weights must be equal-length and non-empty")
        self.items = list(items)
        self.cum: List[float] = []
        acc = 0.0
        for w in weights:
            if w < 0:
                raise ValueError("weights must be non-negative")
            acc += w
            self.cum.append(acc)
        if acc <= 0:
            raise ValueError("weights must sum to a positive value")
        self.total = acc

    def pick(self, rng: random.Random):
        return self.items[bisect_right(self.cum, rng.random() * self.total)]


def _delegation_for(provider: HostingProvider,
                    partner: Optional[HostingProvider], name) -> Delegation:
    ns_addrs = {ns.host: (ns.ip,) for ns in provider.nameservers}
    if partner is not None:
        # Secondary service: the partner contributes its first two NS.
        for ns in partner.nameservers[:2]:
            ns_addrs[ns.host] = (ns.ip,)
    return Delegation.build(name, ns_addrs)


def build_population(rng: random.Random, providers: Sequence[HostingProvider],
                     n_domains: int, misconfig_targets: Sequence[MisconfigTarget],
                     secondary_pool: Sequence[str]) -> DomainDirectory:
    """Generate the registered-domain population.

    ``secondary_pool`` names the providers offering secondary-NS service
    (nic.ru et al.); multi-provider domains pair their primary with one
    of these.
    """
    directory = DomainDirectory()
    by_name = {p.name: p for p in providers}
    picker = _WeightedPicker(providers, [p.weight for p in providers])
    tld_picker = _WeightedPicker([t for t, _ in TLD_MIX], [w for _, w in TLD_MIX])
    mis_picker = (_WeightedPicker([m for m in misconfig_targets],
                                  [m.weight for m in misconfig_targets])
                  if misconfig_targets else None)
    secondaries = [by_name[n] for n in secondary_pool if n in by_name]
    #: (provider, partner) -> the NS hosts and glue its domains share.
    pair_ns_addrs: Dict[Tuple[str, Optional[str]],
                        Tuple[Tuple[DomainName, Tuple[int, ...]], ...]] = {}

    for i in range(n_domains):
        provider = picker.pick(rng)
        if provider.tld_preference and rng.random() < provider.tld_preference[1]:
            tld = provider.tld_preference[0]
        else:
            tld = tld_picker.pick(rng)
        name = DomainName(f"dom{i:07d}.{tld}")

        if mis_picker is not None and rng.random() < MISCONFIG_FRACTION:
            target = mis_picker.pick(rng)
            delegation = Delegation.build(
                name, {DomainName(f"ns.{target.label}.example"): (target.ip,)})
            directory.add(name, provider, delegation, misconfig=True)
            continue

        partner = None
        if secondaries and rng.random() < MULTI_PROVIDER_FRACTION:
            candidates = [s for s in secondaries if s.name != provider.name]
            if candidates:
                partner = rng.choice(candidates)
        third_party = (provider.name == "TransIP"
                       and rng.random() < TRANSIP_THIRD_PARTY_WEB)
        key = (provider.name, partner.name if partner else None)
        ns_addrs = pair_ns_addrs.get(key)
        if ns_addrs is None:
            ns_addrs = _delegation_for(provider, partner, name).ns_addrs
            pair_ns_addrs[key] = ns_addrs
        delegation = Delegation(name, ns_addrs)
        directory.add(name, provider, delegation,
                      secondary=partner.name if partner else None,
                      third_party_web=third_party)
    return directory
