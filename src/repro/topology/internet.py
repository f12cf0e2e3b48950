"""The simulated Internet's address plan and AS registry.

Keeps the global invariants honest: prefixes never overlap reserved
space or the darknet telescope, every announced prefix has exactly one
origin AS (no MOAS in the synthetic world), and IP→AS lookup is
longest-prefix match, as with RouteViews-derived data.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.net.asn import AS, Organization
from repro.net.ip import IPV4_SPACE, IPv4Prefix
from repro.net.prefix_trie import PrefixTrie

# The UCSD telescope announces a /9 and a /10; we reserve an analogous
# pair in the synthetic plan. 44.0.0.0/9 + 44.128.0.0/10 covers
# 8M + 4M = 12,582,912 addresses = 1/341.33 of the IPv4 space, matching
# the paper's coverage ratio.
TELESCOPE_SLASH9 = IPv4Prefix.parse("44.0.0.0/9")
TELESCOPE_SLASH10 = IPv4Prefix.parse("44.128.0.0/10")


#: Address ranges the allocator must never hand out.
RESERVED_PREFIXES: Tuple[IPv4Prefix, ...] = (
    IPv4Prefix.parse("0.0.0.0/8"),       # "this network"
    IPv4Prefix.parse("10.0.0.0/8"),      # RFC 1918
    IPv4Prefix.parse("127.0.0.0/8"),     # loopback
    IPv4Prefix.parse("169.254.0.0/16"),  # link local
    IPv4Prefix.parse("172.16.0.0/12"),   # RFC 1918
    IPv4Prefix.parse("192.168.0.0/16"),  # RFC 1918
    IPv4Prefix.parse("224.0.0.0/3"),     # multicast + class E
    TELESCOPE_SLASH9,                    # darknet
    TELESCOPE_SLASH10,                   # darknet
)
_RESERVED_RANGES = tuple((r.first, r.last) for r in RESERVED_PREFIXES)


def overlaps_reserved(prefix: IPv4Prefix) -> bool:
    """Does ``prefix`` overlap reserved space? Two CIDR blocks overlap
    exactly when one contains the other."""
    first, last = prefix.first, prefix.last
    for r_first, r_last in _RESERVED_RANGES:
        if first <= r_last and r_first <= last:
            return True
    return False


class AllocationError(RuntimeError):
    """The address plan ran out of space or detected an overlap."""


class InternetTopology:
    """Registry of organizations, ASes, and announced prefixes."""

    def __init__(self):
        self._orgs: Dict[str, Organization] = {}
        self._ases: Dict[int, AS] = {}
        self._routes: PrefixTrie[int] = PrefixTrie()  # prefix -> ASN
        self._next_asn = 1
        # The sequential allocator starts at 16.0.0.0; the low /8s
        # (1.0.0.0/8, 8.0.0.0/8, ...) stay free for the well-known
        # service addresses announced explicitly (8.8.8.8, 1.1.1.1, ...).
        self._alloc_cursor = 16 << 24

    # -- organizations -----------------------------------------------------

    def add_org(self, name: str, country: str = "ZZ",
                org_id: Optional[str] = None) -> Organization:
        org_id = org_id or f"org-{len(self._orgs) + 1:05d}"
        if org_id in self._orgs:
            raise ValueError(f"duplicate org id: {org_id}")
        org = Organization(org_id=org_id, name=name, country=country)
        self._orgs[org_id] = org
        return org

    # -- ASes ---------------------------------------------------------------

    def add_as(self, org: Organization, number: Optional[int] = None,
               country: Optional[str] = None) -> AS:
        if number is None:
            while self._next_asn in self._ases:
                self._next_asn += 1
            number = self._next_asn
            self._next_asn += 1
        if number in self._ases:
            raise ValueError(f"duplicate ASN: {number}")
        asys = AS(number=number, org=org, country=country)
        self._ases[number] = asys
        return asys

    def ases(self) -> List[AS]:
        return list(self._ases.values())

    def __contains__(self, asn: int) -> bool:
        return asn in self._ases

    # -- address allocation / announcement -----------------------------------

    def announce(self, asys: AS, prefix: IPv4Prefix) -> None:
        """Announce ``prefix`` from ``asys``; rejects overlaps with
        reserved space or an existing different-origin announcement."""
        if overlaps_reserved(prefix):
            raise AllocationError(f"{prefix} overlaps reserved space")
        existing = self._routes.exact((prefix.network, prefix.length))
        if existing is not None and existing != asys.number:
            raise AllocationError(
                f"{prefix} already announced by AS{existing}")
        self._routes.insert((prefix.network, prefix.length), asys.number)
        asys.announce(prefix)

    def allocate(self, asys: AS, length: int) -> IPv4Prefix:
        """Allocate and announce the next free prefix of ``length``.

        Walks the sequential cursor, skipping reserved space. Allocation
        is in /16-aligned strides for lengths <= 16 and packs within the
        current /16 for longer prefixes.
        """
        if not 8 <= length <= 24:
            raise AllocationError(f"unsupported allocation length: {length}")
        step = 1 << (32 - length)
        cursor = self._alloc_cursor
        base = ((cursor + step - 1) // step) * step
        for _ in range(1 << 20):
            if base + step > IPV4_SPACE:
                raise AllocationError("address space exhausted")
            prefix = IPv4Prefix(base, length)
            is_free = (not overlaps_reserved(prefix)
                       and self._routes.lookup(base) is None
                       and next(iter(self._routes.covered(prefix)), None) is None)
            if is_free:
                self._alloc_cursor = base + step
                self.announce(asys, prefix)
                return prefix
            base += step
        raise AllocationError("no free prefix found")

    # -- lookups --------------------------------------------------------------

    def origin_asn(self, ip) -> Optional[int]:
        """Origin ASN of the longest-matching announced prefix."""
        return self._routes.lookup(ip)

    def route_trie(self) -> PrefixTrie[int]:
        """A copy of the routing table: prefix -> origin ASN."""
        return self._routes.copy()
