"""Synthetic AS-level Internet topology and the CAIDA-style lookups.

The paper attributes attacked IPs to ASes via CAIDA's RouteViews
prefix2AS dataset and to companies via AS2Org. Here a seeded generator
builds an AS-level world (with real-world analog organizations so the
case studies and Tables 4-6 are directly comparable), and the two
datasets are derived from it with the same lookup semantics.
"""

from repro.topology.internet import InternetTopology
from repro.topology.generator import generate_topology
from repro.topology.prefix2as import Prefix2AS
from repro.topology.as2org import AS2Org

__all__ = [
    "InternetTopology",
    "generate_topology",
    "Prefix2AS",
    "AS2Org",
]
