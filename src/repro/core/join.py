"""The §4.2 dataset join: RSDoS victims x OpenINTEL nameservers.

Joins the feed's inferred victim addresses against the set of
authoritative nameserver addresses OpenINTEL observed (the paper uses
the previous day's view to avoid losing nameservers knocked out by the
attack — an ablation bench quantifies that choice), classifies every
attack (direct nameserver hit, same-/24 co-tenant, open resolver, or
unrelated), and maps DNS attacks to the domains that delegate to the
victim.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.datasets.openresolvers import OpenResolverScan
from repro.net.ip import slash24_of
from repro.telescope.rsdos import InferredAttack, attack_problem
from repro.world.domains import DomainDirectory


class AttackClass(enum.Enum):
    """How an inferred attack relates to DNS infrastructure."""

    DNS_DIRECT = "dns_direct"          # victim IP is a nameserver
    DNS_OPEN_RESOLVER = "open_resolver"  # victim is a public resolver in NS records
    DNS_SAME_S24 = "dns_same_s24"      # victim shares a /24 with nameservers
    OTHER = "other"

    @property
    def is_dns(self) -> bool:
        """Counted as a DNS-infrastructure attack (Table 3).

        The paper counts attacks whose victim appears in NS delegations,
        including the open-resolver misconfigurations it then filters
        for the impact analyses; same-/24 co-tenant attacks are tracked
        but the paper "focuses on attacks directly targeting nameserver
        IPs" (§6.1).
        """
        return self in (AttackClass.DNS_DIRECT, AttackClass.DNS_OPEN_RESOLVER)


@dataclass
class ClassifiedAttack:
    """One inferred attack with its join outcome."""

    attack: InferredAttack
    klass: AttackClass
    #: domains delegating to the victim (DNS classes only).
    affected_domains: int = 0
    #: NSSets containing the victim address.
    nsset_ids: Tuple[int, ...] = ()

    @property
    def victim_ip(self) -> int:
        return self.attack.victim_ip


@dataclass(frozen=True)
class RejectedRecord:
    """A feed record the join refused, with the reason.

    Damaged feed rows (truncated, corrupt, wrong type) are recorded
    here instead of crashing the join — the classification analog of
    the feed hardening's dead letters."""

    record: object
    reason: str


@dataclass
class DatasetJoin:
    """The full join result over a feed."""

    classified: List[ClassifiedAttack] = field(default_factory=list)
    rejected: List[RejectedRecord] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """True when any input record had to be rejected: downstream
        counts are lower bounds, not exact."""
        return bool(self.rejected)

    def by_class(self, klass: AttackClass) -> List[ClassifiedAttack]:
        return [c for c in self.classified if c.klass is klass]

    @property
    def dns_attacks(self) -> List[ClassifiedAttack]:
        """Attacks counted against DNS infrastructure (incl. open
        resolvers, as in Table 3 before the Table 4/5 filtering)."""
        return [c for c in self.classified if c.klass.is_dns]

    @property
    def dns_direct_attacks(self) -> List[ClassifiedAttack]:
        """Attacks on true authoritative nameserver addresses — the
        population every impact analysis (§6.2-§6.6) runs on."""
        return self.by_class(AttackClass.DNS_DIRECT)

    @property
    def other_attacks(self) -> List[ClassifiedAttack]:
        return [c for c in self.classified
                if c.klass in (AttackClass.OTHER, AttackClass.DNS_SAME_S24)]

    def __len__(self) -> int:
        return len(self.classified)


def join_datasets(attacks: Sequence[InferredAttack],
                  directory: DomainDirectory,
                  open_resolvers: Optional[OpenResolverScan] = None
                  ) -> DatasetJoin:
    """Classify every inferred attack against the nameserver view.

    ``directory`` provides the measurement platform's delegation view
    (the previous-day nameserver list in the paper's streaming pipeline;
    delegations are effectively day-stable in both worlds).

    Malformed feed records (attack-time telemetry is lossy and corrupt)
    never crash the join: each is appended to ``join.rejected`` with a
    reason and skipped, and ``join.degraded`` reports that downstream
    counts are lower bounds.
    """
    ns_ips = directory.nameserver_ips()
    ns_slash24s = {slash24_of(ip) for ip in ns_ips}
    join = DatasetJoin()
    for attack in attacks:
        problem = attack_problem(attack)
        if problem is not None:
            join.rejected.append(RejectedRecord(attack, problem))
            continue
        victim = attack.victim_ip
        if victim in ns_ips:
            if open_resolvers is not None and victim in open_resolvers:
                klass = AttackClass.DNS_OPEN_RESOLVER
            else:
                klass = AttackClass.DNS_DIRECT
            domains = directory.domains_of_ip(victim)
            join.classified.append(ClassifiedAttack(
                attack=attack, klass=klass,
                affected_domains=len(domains),
                nsset_ids=tuple(sorted(directory.nssets_of_ip(victim)))))
        elif slash24_of(victim) in ns_slash24s:
            join.classified.append(ClassifiedAttack(
                attack=attack, klass=AttackClass.DNS_SAME_S24))
        else:
            join.classified.append(ClassifiedAttack(
                attack=attack, klass=AttackClass.OTHER))
    return join
