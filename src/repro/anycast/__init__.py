"""IP anycast modeling and the quarterly anycast census.

Anycast lets multiple sites announce the same address; attack traffic is
split across sites by BGP catchment while a single-vantage measurement
only ever sees its own catchment site. The census mirrors the MAnycast2
snapshots the paper uses: a *lower-bound* detector of anycast /24s.
"""

from repro.anycast.deployment import AnycastDeployment, AnycastSite
from repro.anycast.census import AnycastCensus, CensusSnapshot

__all__ = [
    "AnycastDeployment",
    "AnycastSite",
    "AnycastCensus",
    "CensusSnapshot",
]
