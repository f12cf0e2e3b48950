"""The darknet itself: announced unused space that only receives.

The UCSD-NT announces a /9 and a /10 — 12,582,912 addresses, 1/341.33
of the 2^32 IPv4 space. The paper's intensity extrapolation (footnote 2:
``21.8 Kppm x 341 / 60 s = 124 Kpps``) comes straight from this ratio.
"""

from __future__ import annotations

import math
import random
from typing import Sequence, Tuple

from repro.net.ip import IPV4_SPACE, IPv4Prefix
from repro.topology.internet import TELESCOPE_SLASH9, TELESCOPE_SLASH10

#: 1 / 341.33...: the fraction of IPv4 space the telescope observes.
TELESCOPE_COVERAGE = (TELESCOPE_SLASH9.num_addresses
                      + TELESCOPE_SLASH10.num_addresses) / IPV4_SPACE

#: The paper's extrapolation constant (footnote 2): telescope counts
#: times 341.33 estimate the global ones.
EXTRAPOLATION = 341.33


class Darknet:
    """The telescope's address space and sampling helpers."""

    def __init__(self, prefixes: Sequence[IPv4Prefix] = (TELESCOPE_SLASH9,
                                                         TELESCOPE_SLASH10)):
        if not prefixes:
            raise ValueError("a darknet needs at least one prefix")
        self.prefixes: Tuple[IPv4Prefix, ...] = tuple(prefixes)
        self.n_addresses = sum(p.num_addresses for p in self.prefixes)

    @property
    def coverage(self) -> float:
        """Fraction of IPv4 space observed."""
        return self.n_addresses / IPV4_SPACE

    @property
    def n_slash16s(self) -> int:
        """Number of /16 blocks inside the darknet (the feed reports how
        many receive backscatter per window)."""
        return sum(max(1, p.num_addresses // 65536) for p in self.prefixes)

    def contains(self, ip: int) -> bool:
        return any(p.contains_ip(ip) for p in self.prefixes)

    def sample_address(self, rng: random.Random) -> int:
        """A uniformly random telescope address (weighted by prefix size)."""
        x = rng.randrange(self.n_addresses)
        for prefix in self.prefixes:
            if x < prefix.num_addresses:
                return prefix.network + x
            x -= prefix.num_addresses
        raise AssertionError("unreachable")

    def expected_hits(self, response_packets: float) -> float:
        """Expected telescope packets out of uniformly-spoofed responses."""
        return response_packets * self.coverage

    def expected_unique_slash16(self, n_packets: float) -> float:
        """Expected distinct darknet /16s hit by ``n_packets`` uniform
        packets (coupon-collector expectation)."""
        blocks = self.n_slash16s
        if n_packets <= 0:
            return 0.0
        return blocks * (1.0 - math.exp(-n_packets / blocks))

    def expected_unique_addresses(self, n_packets: float,
                                  pool_in_darknet: float) -> float:
        """Expected distinct darknet addresses hit, when the attacker
        spoofs from a pool of which ``pool_in_darknet`` addresses fall
        inside the telescope."""
        if n_packets <= 0 or pool_in_darknet <= 0:
            return 0.0
        return pool_in_darknet * (1.0 - math.exp(-n_packets / pool_in_darknet))
