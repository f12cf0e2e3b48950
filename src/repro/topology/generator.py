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
from typing import Dict, List, Optional, Tuple

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


@dataclass(frozen=True)
class TopologyConfig:
    """Knobs for the synthetic topology size."""

    n_filler_orgs: int = 400
    prefixes_per_filler: int = 2
    filler_prefix_length: int = 20
    multi_as_org_fraction: float = 0.05
    include_analogs: bool = True

    def __post_init__(self) -> None:
        if self.n_filler_orgs < 0:
            raise ValueError("n_filler_orgs must be non-negative")
        if not 0 <= self.multi_as_org_fraction <= 1:
            raise ValueError("multi_as_org_fraction must be within [0, 1]")


@dataclass
class GeneratedTopology:
    """The generator's output bundle."""

    internet: InternetTopology
    analog_as: Dict[str, AS] = field(default_factory=dict)
    filler_as: List[AS] = field(default_factory=list)


def generate_topology(rng: random.Random,
                      config: Optional[TopologyConfig] = None) -> GeneratedTopology:
    """Build the synthetic Internet.

    Analog orgs get their real ASNs plus a couple of address blocks;
    filler orgs get sequential ASNs from 60000 upward so they can never
    collide with the analog set.
    """
    config = config or TopologyConfig()
    internet = InternetTopology()
    out = GeneratedTopology(internet=internet)

    if config.include_analogs:
        for name, asn, country in ANALOG_ORGS:
            org = internet.add_org(name, country=country)
            asys = internet.add_as(org, number=asn, country=country)
            # Named players are substantial networks: a /16 plus a /20.
            internet.allocate(asys, 16)
            internet.allocate(asys, 20)
            out.analog_as[name] = asys

    next_asn = 60000
    for i in range(config.n_filler_orgs):
        kind = _ORG_KINDS[i % len(_ORG_KINDS)]
        country = rng.choice(_COUNTRIES)
        org = internet.add_org(f"{kind.title()}-{i:04d}", country=country)
        n_as = 2 if rng.random() < config.multi_as_org_fraction else 1
        for _ in range(n_as):
            asys = internet.add_as(org, number=next_asn, country=country)
            next_asn += 1
            for _ in range(config.prefixes_per_filler):
                internet.allocate(asys, config.filler_prefix_length)
            out.filler_as.append(asys)
    return out
