"""Prefix-to-AS dataset (CAIDA RouteViews prefix2as analog).

A point-in-time snapshot of announced routes supporting the IP→origin-AS
attribution used throughout the analysis (Tables 3-6). Built either from
the live topology or loaded from the serialized text format (which
mirrors CAIDA's ``prefix<TAB>length<TAB>asn`` files).
"""

from __future__ import annotations

from typing import Iterator, Optional, TextIO, Tuple

from repro.net.ip import IPv4Prefix, ip_to_str, parse_ip
from repro.net.prefix_trie import PrefixTrie
from repro.topology.internet import InternetTopology


class Prefix2AS:
    """Longest-prefix-match IP→ASN lookup table."""

    def __init__(self) -> None:
        self._trie: PrefixTrie[int] = PrefixTrie()

    @classmethod
    def from_topology(cls, internet: InternetTopology) -> "Prefix2AS":
        dataset = cls()
        dataset._trie = internet.route_trie()
        return dataset

    def add(self, prefix: IPv4Prefix, asn: int) -> None:
        if asn <= 0:
            raise ValueError(f"invalid ASN: {asn}")
        self._trie.insert((prefix.network, prefix.length), asn)

    def lookup(self, ip) -> Optional[int]:
        """Origin ASN for an address, or None if unrouted."""
        return self._trie.lookup(ip)

    def __len__(self) -> int:
        return len(self._trie)

    def entries(self) -> Iterator[Tuple[IPv4Prefix, int]]:
        for (network, length), asn in self._trie.items():
            yield IPv4Prefix(network, length), asn

    # -- serialization (CAIDA-like text format) -----------------------------

    def dump(self, fp: TextIO) -> None:
        for prefix, asn in self.entries():
            fp.write(f"{ip_to_str(prefix.network)}\t{prefix.length}\t{asn}\n")

    @classmethod
    def load(cls, fp: TextIO) -> "Prefix2AS":
        dataset = cls()
        for lineno, line in enumerate(fp, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 3 tab-separated fields")
            network, length, asn = parts
            # CAIDA encodes MOAS origins as comma/underscore sets; we take
            # the first origin, as the paper's single-attribution does.
            first_asn = asn.replace("_", ",").split(",")[0]
            dataset.add(IPv4Prefix(parse_ip(network), int(length)), int(first_asn))
        return dataset
