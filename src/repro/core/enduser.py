"""End-user impact under caching (§6.3.1's discussion, Moura et al. 2018).

The paper notes that the end-user impact of a resolution failure depends
on caching policy: "a popular domain (i.e., queried frequently,
available in most caches) with a high TTL value may be less affected
than a less popular one" — and cites Moura et al.'s finding that caches
let almost all users tolerate attacks causing up to ~50% packet loss.

This module models a recursive resolver's cache during an attack: user
queries arrive at rate ``qph`` (queries per hour), cache entries live
``ttl`` seconds, and during the attack each cache-miss refresh fails
with probability ``failure_p``. A user-visible failure is a query that
misses the cache and whose refresh fails.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.util.rng import derive_seed
from repro.util.timeutil import DAY, HOUR, Window


@dataclass(frozen=True)
class CacheScenario:
    """One (popularity, TTL) configuration of a domain."""

    queries_per_hour: float
    ttl_s: int

    def __post_init__(self) -> None:
        if self.queries_per_hour <= 0:
            raise ValueError("query rate must be positive")
        if self.ttl_s < 0:
            raise ValueError("ttl must be non-negative")


@dataclass
class EndUserImpact:
    """User-visible outcome of one attack under one cache scenario."""

    scenario: CacheScenario
    n_queries: int
    n_failed: int
    #: seconds after attack start until the first user-visible failure
    #: (None if the cache carried users through the whole attack).
    first_failure_after_s: Optional[int]

    @property
    def failure_share(self) -> float:
        return self.n_failed / self.n_queries if self.n_queries else 0.0


def simulate_enduser_impact(rng: random.Random, scenario: CacheScenario,
                            attack: Window, failure_p: float) -> EndUserImpact:
    """Simulate one resolver cache through ``attack``.

    At least a day of pre-attack traffic warms the cache; during the attack
    a cache miss fails with probability ``failure_p`` (and the stale
    entry is NOT served — the pre-serve-stale behaviour of the study
    period). Deterministic given the rng.
    """
    if not 0 <= failure_p <= 1:
        raise ValueError("failure_p must be within [0, 1]")
    rate_s = scenario.queries_per_hour / HOUR
    # The warm-up must be long enough for the cache to reach steady
    # state, and its length randomized over one TTL: refresh instants
    # phase-lock to multiples of the TTL under high query rates, and a
    # deterministic lead would pin an expiry right at the attack start —
    # the steady-state expiry phase at attack onset is uniform in [0, TTL).
    lead_s = max(DAY, int(scenario.ttl_s * (1.0 + rng.random())) + 1)
    ts = float(attack.start - lead_s)
    cache_expiry = -math.inf
    n_queries = 0
    n_failed = 0
    first_failure: Optional[int] = None
    while ts < attack.end:
        ts += rng.expovariate(rate_s)
        if ts >= attack.end:
            break
        in_attack = attack.contains(int(ts))
        if ts < cache_expiry:
            if in_attack:
                n_queries += 1  # served from cache: a success
            continue
        # Cache miss: refresh against the authoritatives.
        refresh_fails = in_attack and rng.random() < failure_p
        if in_attack:
            n_queries += 1
            if refresh_fails:
                n_failed += 1
                if first_failure is None:
                    first_failure = int(ts) - attack.start
        if not refresh_fails:
            cache_expiry = ts + scenario.ttl_s
    return EndUserImpact(scenario=scenario, n_queries=n_queries,
                         n_failed=n_failed,
                         first_failure_after_s=first_failure)


def analytic_failure_share(scenario: CacheScenario, attack_s: int,
                           failure_p: float) -> float:
    """Closed-form approximation of the user-visible failure share.

    With query inter-arrival 1/lambda and TTL T, the cache-miss share of
    queries is ``1 / (1 + lambda*T_eff)`` where ``T_eff`` accounts for
    retries extending outages; under failure probability f each miss
    fails f until a refresh succeeds. For f < 1 the expected outage run
    per expiry is geometric; this approximation is validated against the
    simulation in the test suite.
    """
    lam = scenario.queries_per_hour / HOUR
    if failure_p >= 1.0:
        # The cache carries users only until the first expiry.
        covered = min(scenario.ttl_s / 2.0, attack_s)
        return max(0.0, 1.0 - covered / attack_s) if attack_s else 0.0
    # Renewal argument: each successful refresh covers T seconds plus
    # the expected failed-miss run before the next success.
    expected_failures_per_cycle = failure_p / (1.0 - failure_p)
    expected_queries_per_cycle = lam * scenario.ttl_s + 1 \
        + expected_failures_per_cycle
    return expected_failures_per_cycle / expected_queries_per_cycle


def caching_grid(seed: int, attack: Window, failure_p: float,
                 popularities: Sequence[float] = (1.0, 10.0, 100.0, 1000.0),
                 ttls: Sequence[int] = (60, 300, 3600, 86400),
                 ) -> List[Tuple[CacheScenario, EndUserImpact]]:
    """The §6.3.1 claim as a grid: user-visible failure share by
    (popularity, TTL). Popular domains with high TTLs fail least."""
    out = []
    for qph in popularities:
        for ttl in ttls:
            scenario = CacheScenario(queries_per_hour=qph, ttl_s=ttl)
            rng = random.Random(derive_seed(seed, "enduser",
                                            f"{qph}:{ttl}"))
            out.append((scenario,
                        simulate_enduser_impact(rng, scenario, attack,
                                                failure_p)))
    return out
