"""Open-resolver scan dataset (Yazdani et al. analog).

The paper uses open-resolver scans to filter incidental public-resolver
addresses (8.8.8.8, 1.1.1.1, ...) out of the authoritative-infrastructure
analysis: misconfigured domains point NS records at them, but attacks on
them are not attacks on authoritative DNS (Tables 4/5).
"""

from __future__ import annotations

import json
from typing import Iterable, Optional, Set, TextIO

from repro.net.ip import ip_to_str, parse_ip


class OpenResolverScan:
    """A snapshot of addresses observed answering recursive queries."""

    def __init__(self, ips: Optional[Iterable[int]] = None):
        self._ips: Set[int] = {int(ip) for ip in (ips or ())}

    @classmethod
    def from_world(cls, world) -> "OpenResolverScan":
        """Scan the simulated world: every answering public-resolver
        target shows up (recall is effectively perfect for the handful
        of major public resolvers the filter exists for)."""
        return cls(world.open_resolver_ips)

    def add(self, ip) -> None:
        self._ips.add(parse_ip(ip) if isinstance(ip, str) else int(ip))

    def is_open_resolver(self, ip: int) -> bool:
        return int(ip) in self._ips

    def __len__(self) -> int:
        return len(self._ips)

    def __contains__(self, ip: int) -> bool:
        return self.is_open_resolver(ip)

    # -- serialization -----------------------------------------------------------

    def dump(self, fp: TextIO) -> None:
        fp.write(json.dumps({
            "resolvers": [ip_to_str(ip) for ip in sorted(self._ips)],
        }) + "\n")

    @classmethod
    def load(cls, fp: TextIO) -> "OpenResolverScan":
        row = json.loads(fp.readline())
        return cls(parse_ip(t) for t in row["resolvers"])
