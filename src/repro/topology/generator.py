"""Seeded synthetic topology generation.

Creates the organizations and ASes the study world runs on. The paper's
results name real companies (Tables 4-6, the case studies); to keep the
benchmarks directly comparable we seed *analog* organizations with the
same names, ASNs and countries, then fill the rest of the world with
generated eyeball/hosting/enterprise networks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.net.asn import AS
from repro.topology.internet import InternetTopology

# (name, ASN, country) — the named players from the paper. ASNs match the
# real-world numbers quoted in Table 4 where the paper lists them.
ANALOG_ORGS: Tuple[Tuple[str, int, str], ...] = (
    ("Google", 15169, "US"),
    ("Unified Layer", 46606, "US"),
    ("Cloudflare", 13335, "US"),
    ("OVH", 16276, "FR"),
    ("Hetzner", 24940, "DE"),
    ("Amazon", 16509, "US"),
    ("Microsoft", 8068, "US"),
    ("Fastly", 54113, "US"),
    ("Birbir", 199608, "TR"),
    ("Pendc", 48678, "TR"),
    ("TransIP", 20857, "NL"),
    ("GoDaddy", 26496, "US"),
    ("Linode", 63949, "US"),
    ("NForce B.V.", 43350, "NL"),
    ("Co-Co NL", 204010, "NL"),
    ("NMU Group", 204018, "SE"),
    ("My Lock De", 204020, "DE"),
    ("DigiHosting NL", 204022, "NL"),
    ("Apple Russia", 714, "RU"),
    ("ITandTEL", 29081, "AT"),
    ("Contabo", 51167, "DE"),
    ("nic.ru", 15756, "RU"),
    ("Euskaltel", 12338, "ES"),
    ("Beeline RU", 3216, "RU"),
    ("Rostelecom", 12389, "RU"),
    ("Verisign", 26415, "US"),
    ("Bing", 8075, "US"),
)

_COUNTRIES = ("US", "DE", "NL", "FR", "GB", "RU", "BR", "JP", "IN", "CN",
              "IT", "ES", "SE", "PL", "CA", "AU", "TR", "ZA", "MX", "KR")

_ORG_KINDS = ("hosting", "isp", "enterprise", "cloud", "cdn")


# Size of the generated filler: organizations, each with this many
# prefixes of this length per AS, and the share of them running two ASes.
N_FILLER_ORGS = 400
PREFIXES_PER_FILLER = 2
FILLER_PREFIX_LENGTH = 20
MULTI_AS_ORG_FRACTION = 0.05


@dataclass
class GeneratedTopology:
    """The generator's output bundle."""

    internet: InternetTopology
    analog_as: Dict[str, AS] = field(default_factory=dict)
    filler_as: List[AS] = field(default_factory=list)


def generate_topology(rng: random.Random) -> GeneratedTopology:
    """Build the synthetic Internet.

    Analog orgs get their real ASNs plus a couple of address blocks;
    filler orgs get sequential ASNs from 60000 upward so they can never
    collide with the analog set.
    """
    internet = InternetTopology()
    out = GeneratedTopology(internet=internet)

    for name, asn, country in ANALOG_ORGS:
        org = internet.add_org(name, country=country)
        asys = internet.add_as(org, number=asn, country=country)
        # Named players are substantial networks: a /16 plus a /20.
        internet.allocate(asys, 16)
        internet.allocate(asys, 20)
        out.analog_as[name] = asys

    next_asn = 60000
    for i in range(N_FILLER_ORGS):
        kind = _ORG_KINDS[i % len(_ORG_KINDS)]
        country = rng.choice(_COUNTRIES)
        org = internet.add_org(f"{kind.title()}-{i:04d}", country=country)
        n_as = 2 if rng.random() < MULTI_AS_ORG_FRACTION else 1
        for _ in range(n_as):
            asys = internet.add_as(org, number=next_asn, country=country)
            next_asn += 1
            for _ in range(PREFIXES_PER_FILLER):
                internet.allocate(asys, FILLER_PREFIX_LENGTH)
            out.filler_as.append(asys)
    return out
