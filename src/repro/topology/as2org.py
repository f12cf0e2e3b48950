"""AS-to-organization dataset (CAIDA AS2Org analog).

Maps AS numbers to operating organizations so per-company aggregations
(Table 4's top attacked companies, Table 6's most-affected companies)
can group sibling ASes under one name.
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, TextIO, Tuple

from repro.net.asn import Organization
from repro.topology.internet import InternetTopology


class AS2Org:
    """ASN → Organization mapping."""

    def __init__(self) -> None:
        self._by_asn: Dict[int, Organization] = {}

    @classmethod
    def from_topology(cls, internet: InternetTopology) -> "AS2Org":
        dataset = cls()
        for asys in internet.ases():
            dataset.add(asys.number, asys.org)
        return dataset

    def add(self, asn: int, org: Organization) -> None:
        if asn <= 0:
            raise ValueError(f"invalid ASN: {asn}")
        self._by_asn[asn] = org

    def name_of(self, asn: int) -> str:
        """Company name for an ASN, with a stable fallback for unknowns."""
        org = self._by_asn.get(asn)
        return org.name if org else f"AS{asn}"

    def items(self) -> Iterator[Tuple[int, Organization]]:
        return iter(sorted(self._by_asn.items()))

    def __len__(self) -> int:
        return len(self._by_asn)

    def __contains__(self, asn: int) -> bool:
        return asn in self._by_asn

    # -- serialization (JSONL: one mapping per line) -------------------------

    def dump(self, fp: TextIO) -> None:
        for asn, org in self.items():
            fp.write(json.dumps({
                "asn": asn, "org_id": org.org_id,
                "name": org.name, "country": org.country,
            }) + "\n")

    @classmethod
    def load(cls, fp: TextIO) -> "AS2Org":
        dataset = cls()
        orgs: Dict[str, Organization] = {}
        for lineno, line in enumerate(fp, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                org_id = row["org_id"]
                org = orgs.get(org_id)
                if org is None:
                    org = Organization(org_id=org_id, name=row["name"],
                                       country=row.get("country", "ZZ"))
                    orgs[org_id] = org
                dataset.add(int(row["asn"]), org)
            except (KeyError, ValueError, TypeError) as exc:
                raise ValueError(f"line {lineno}: malformed AS2Org row") from exc
        return dataset
