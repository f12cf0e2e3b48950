"""Autonomous system and organization types.

Mirrors the two CAIDA ancillary datasets the paper uses: prefix2AS (an
address maps to the AS number originating its covering prefix) and
AS2Org (an AS number maps to the operating organization).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.net.ip import IPv4Prefix


@dataclass(frozen=True)
class Organization:
    """An operating organization (the AS2Org granularity of Tables 4/6)."""

    org_id: str
    name: str
    country: str = "ZZ"

    def __str__(self) -> str:
        return self.name


@dataclass
class AS:
    """An autonomous system with its announced prefixes."""

    number: int
    org: Organization
    prefixes: List[IPv4Prefix] = field(default_factory=list)
    country: Optional[str] = None

    def __post_init__(self) -> None:
        if not 0 < self.number < 2 ** 32:
            raise ValueError(f"invalid AS number: {self.number}")
        if self.country is None:
            self.country = self.org.country

    @property
    def asn(self) -> int:
        return self.number

    def announce(self, prefix: IPv4Prefix) -> None:
        """Add a prefix announcement (idempotent)."""
        if prefix not in self.prefixes:
            self.prefixes.append(prefix)

    def __str__(self) -> str:
        return f"AS{self.number} ({self.org.name})"

    def __hash__(self) -> int:
        return hash(self.number)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, AS):
            return self.number == other.number
        return NotImplemented
