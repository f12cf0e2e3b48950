"""Anycast deployments: sites, catchments, and traffic splitting.

The resilience mechanism the paper finds most effective (§6.6.1) is
mechanistic: a volumetric attack's sources are spread across the
Internet, so each anycast site absorbs only its catchment's share, while
a legitimate client is served by exactly one site. Both behaviours are
modeled here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.util.rng import derive_seed

_REGIONS = ("eu-west", "eu-east", "us-east", "us-west", "sa", "af",
            "ap-south", "ap-east", "oceania", "me")


@dataclass(frozen=True)
class AnycastSite:
    """One replica site of an anycast deployment."""

    site_id: str
    region: str
    catchment_weight: float
    capacity_pps: float

    def __post_init__(self) -> None:
        if self.catchment_weight < 0:
            raise ValueError("catchment weight must be non-negative")
        if self.capacity_pps <= 0:
            raise ValueError("capacity must be positive")


class AnycastDeployment:
    """A set of sites announcing one service address.

    ``catchment_weight`` captures what share of globally-spread traffic
    (spoofed attack sources are uniform over IPv4 space) lands at each
    site. Weights are normalized on construction.
    """

    def __init__(self, sites: Sequence[AnycastSite]):
        if not sites:
            raise ValueError("an anycast deployment needs at least one site")
        total = sum(s.catchment_weight for s in sites)
        if total <= 0:
            raise ValueError("total catchment weight must be positive")
        self.sites: Tuple[AnycastSite, ...] = tuple(
            AnycastSite(s.site_id, s.region, s.catchment_weight / total,
                        s.capacity_pps)
            for s in sites
        )

    def site_for_region(self, region: str) -> AnycastSite:
        """The site a client in ``region`` is routed to: the site of the
        same region if one exists, else the largest-catchment site.

        This is the "catchment can mask regional impact" phenomenon from
        the paper's limitations (§4.3): a single vantage point only ever
        observes its own site.
        """
        for site in self.sites:
            if site.region == region:
                return site
        return max(self.sites, key=lambda s: s.catchment_weight)

    def load_at_site(self, site: AnycastSite, attack_pps: float) -> float:
        """Utilization (attack pps / capacity) at one site."""
        return attack_pps * site.catchment_weight / site.capacity_pps

    @classmethod
    def build(cls, seed: int, n_sites: int, per_site_capacity_pps: float,
              skew: float = 0.5) -> "AnycastDeployment":
        """Generate a deployment with mildly skewed catchments.

        ``skew`` in [0, 1): 0 gives uniform catchments; larger values
        concentrate traffic on a few sites (real catchments are uneven).
        """
        if n_sites <= 0:
            raise ValueError("n_sites must be positive")
        if not 0 <= skew < 1:
            raise ValueError("skew must be within [0, 1)")
        rng = random.Random(derive_seed(seed, "anycast-sites"))
        sites = []
        for i in range(n_sites):
            weight = 1.0 + skew * rng.expovariate(1.0) * 3.0
            sites.append(AnycastSite(
                site_id=f"site-{i:02d}",
                region=_REGIONS[i % len(_REGIONS)],
                catchment_weight=weight,
                capacity_pps=per_site_capacity_pps,
            ))
        return cls(sites)

