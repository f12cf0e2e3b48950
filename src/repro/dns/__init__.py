"""DNS substrate: names, record types, delegations, and the resolver.

This package implements the protocol-level machinery the reproduction
needs: an OpenINTEL-style measurement sends explicit NS queries through
an unbound-like *agnostic* stub resolver (random authoritative selection,
retry after timeout, empty cache), and the simulated world answers them
through its capacity-model transport.
"""

from repro.dns.name import DomainName
from repro.dns.rcode import Rcode, ResponseStatus
from repro.dns.rr import RRType
from repro.dns.zone import Delegation
from repro.dns.resolver import (
    AgnosticResolver,
    ResolutionResult,
    Transport,
)
from repro.dns.server import NameserverId

__all__ = [
    "DomainName",
    "Rcode",
    "ResponseStatus",
    "RRType",
    "Delegation",
    "AgnosticResolver",
    "ResolutionResult",
    "Transport",
    "NameserverId",
]
