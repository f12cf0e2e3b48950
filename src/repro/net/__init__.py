"""Networking primitives: IPv4 addresses/prefixes, radix trie, ASNs, ports.

These are built from scratch on plain integers rather than the stdlib
``ipaddress`` module: the join pipeline touches millions of addresses and
the int-backed representation keeps hashing/masking cheap while still
offering friendly parsing and formatting at the edges.
"""

from repro.net.ip import (
    IPV4_SPACE,
    IPv4Prefix,
    ip_to_str,
    parse_ip,
    parse_prefix,
    slash24_of,
)
from repro.net.prefix_trie import PrefixTrie
from repro.net.asn import AS, Organization
from repro.net.ports import (
    PORT_DNS,
    PORT_HTTP,
    PORT_HTTPS,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    port_name,
    proto_name,
)

__all__ = [
    "IPV4_SPACE",
    "IPv4Prefix",
    "ip_to_str",
    "parse_ip",
    "parse_prefix",
    "slash24_of",
    "PrefixTrie",
    "AS",
    "Organization",
    "PORT_DNS",
    "PORT_HTTP",
    "PORT_HTTPS",
    "PROTO_ICMP",
    "PROTO_TCP",
    "PROTO_UDP",
    "port_name",
    "proto_name",
]
