"""Delegations: the parent-side view of a registered domain.

A :class:`Delegation` captures the NS set and glue a registrant
publishes at the registry — which is what OpenINTEL's explicit NS
queries ultimately exercise and what the join pipeline maps attacks
onto.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.dns.name import DomainName


@dataclass(frozen=True)
class Delegation:
    """A registered domain's delegation: NS hostnames and their IPv4 glue.

    ``ns_addrs`` maps each NS hostname to its IPv4 address ints. The set
    of all addresses across hostnames is the domain's *NSSet* key in the
    paper's aggregation (§4.1), kept as ``nameserver_ips``: the sorted
    unique IPv4 ints across all NS hosts.
    """

    domain: DomainName
    ns_addrs: Tuple[Tuple[DomainName, Tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        ips = set()
        for _, addrs in self.ns_addrs:
            ips.update(addrs)
        object.__setattr__(self, "nameserver_ips", tuple(sorted(ips)))

    @classmethod
    def build(cls, domain, ns_addrs: Dict) -> "Delegation":
        pairs = tuple(
            (DomainName(host), tuple(sorted(int(a) for a in addrs)))
            for host, addrs in sorted(ns_addrs.items(), key=lambda kv: str(kv[0]))
        )
        return cls(DomainName(domain), pairs)

    @property
    def nameserver_hosts(self) -> Tuple[DomainName, ...]:
        return tuple(host for host, _ in self.ns_addrs)

    def addresses_of(self, host) -> Tuple[int, ...]:
        host = DomainName(host)
        for h, addrs in self.ns_addrs:
            if h == host:
                return addrs
        raise KeyError(f"{host} is not a nameserver of {self.domain}")

    def __len__(self) -> int:
        return len(self.ns_addrs)
