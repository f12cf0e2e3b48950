"""Scripted case-study scenarios from the paper.

Each scenario reproduces the infrastructure shape and attack timeline
the paper documents:

* **TransIP** (§5.1): three unicast nameservers A/B/C on three /24s
  behind one ASN. December 2020 — nameserver A hit hard (124 Kpps of
  victim response traffic after the x341/60 extrapolation of 21.8 Kppm),
  B and C lightly; impairment persists ~8 hours past the attack
  (aftermath). March 2021 — all three hit (~6x December's peak);
  ~20% of queries time out; impact window matches the telescope window.
* **mil.ru** (§5.2.1): three nameservers on one /24, single ASN; 8-day
  attack (March 11-18, 2022); geofence blackout makes the domain
  unresolvable from outside Russia March 12-16.
* **RZD railways** (§5.2.2): three nameservers on two /24s, one ASN;
  attack March 8, 2022, 15:30-20:45; service only intermittently
  recovers at 06:00 the next morning (aftermath).
* **nic.ru** (§6.3.1): secondary-NS service; March 2022 attack causing
  100% resolution failure. **Euskaltel** (§6.3.1): small ISP failing
  ~83% of queries. **Contabo** (§6.5): 19-hour attack with ~30x RTT.
* **Table 6 providers**: one tuned attack per named company producing
  the decreasing RTT-impact ladder (NForce 348x ... ITandTEL 74x).
* **Mega-provider peaks** (Figure 5): eight attacks on deployments
  hosting millions of (scaled) domains, with negligible impact.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.attacks.model import Attack, AttackVector, Campaign, ImpairmentProfile, Spoofing
from repro.dns.name import DomainName
from repro.net.ports import PORT_DNS, PORT_HTTP, PROTO_UDP
from repro.util.timeutil import HOUR, MINUTE, Window, parse_ts
from repro.world.domains import _delegation_for
from repro.world.hosting import DeploymentProfile, ProfileKind, build_provider
from repro.world.capacity import HEADROOM
from repro.world.simulation import VANTAGE_REGION, World

# Victim-response packet rates from Table 2 after the paper's own
# extrapolation (telescope ppm x 341 / 60).
TRANSIP_DEC_PPS = (124_000.0, 21_600.0, 16_500.0)
TRANSIP_DEC_POOLS = (5_790_000, 1_570_000, 1_330_000)
TRANSIP_MAR_PPS = (710_000.0, 700_000.0, 74_000.0)
TRANSIP_MAR_POOLS = (7_000_000, 6_190_000, 823_000)

# Table 6 ladder: (provider, paper-reported peak Impact_on_RTT). The
# per-attack drop probability is solved per nameserver from this target
# and the server's actual baseline RTT (see drop_for_impact): with
# per-attempt drop probability p, the resolver's expected extra
# resolution time is f(p) = 1.5p + 3p^2 + 6p^3 + 6p^4 + 6p^5 seconds
# (the retransmission backoff ladder), and Impact ~= 1 + f(p)/baseline.
# The vector kind mirrors §6.2/§6.3.1: most effective attacks are
# application-aware UDP/53 floods, but some succeed via TCP SYN floods
# on port 53 or on port 80 (the same IP often hosts web and DNS).
TABLE6_TARGETS: Tuple[Tuple[str, float, str], ...] = (
    ("NForce B.V.", 348.0, "udp53"),
    ("Co-Co NL", 219.0, "tcp80"),
    ("NMU Group", 181.0, "udp53"),
    ("Hetzner", 174.0, "tcp53"),
    ("My Lock De", 146.0, "tcp80"),
    ("DigiHosting NL", 140.0, "udp53"),
    ("Apple Russia", 100.0, "udp53"),
    ("GoDaddy", 76.0, "udp53"),
    ("Linode", 75.0, "tcp53"),
    ("ITandTEL", 74.0, "tcp80"),
)

# (server cost factor, vector constructor) per kind; cost factors match
# CapacityModel's weighting of each packet type.
_VECTOR_KINDS = {
    "udp53": (4.0, lambda rate: AttackVector.udp_flood(PORT_DNS, rate)),
    "tcp53": (1.0, lambda rate: AttackVector.tcp_syn(PORT_DNS, rate)),
    "tcp80": (0.5, lambda rate: AttackVector.tcp_syn(PORT_HTTP, rate)),
}
TABLE6_DATES = (
    "2021-02-09 14:00", "2021-04-21 09:30", "2021-05-17 20:15",
    "2021-07-03 11:45", "2021-08-26 16:30", "2021-10-14 08:20",
    "2022-01-21 13:00",  # Apple Russia: the paper notes Jan 21, 2022
    "2021-11-29 22:10", "2021-12-13 07:40", "2022-02-08 18:25",
)

MEGA_PEAK_MONTHS = ("2021-01-12 15:00", "2021-03-18 10:00", "2021-05-25 21:00",
                    "2021-07-07 03:00", "2021-09-14 12:00", "2021-11-23 17:00",
                    "2022-01-19 09:00", "2022-03-21 14:00")


def expected_retry_burn_s(p: float) -> float:
    """Expected extra resolution time (seconds) of an *answered* query
    at per-attempt drop probability ``p``.

    OpenINTEL's RTT averages cover answered queries (total failures
    count as errors, not RTT), so the relevant statistic conditions on
    eventual success. Under the default backoff ladder (1.5 s, 3 s, then
    6 s) and the 15 s deadline, success is only possible after 0-3
    burned attempts with cumulative burn 0 / 1.5 / 4.5 / 10.5 s:

        E[burn | answered] = sum(p^k C_k) / sum(p^k),  k = 0..3.

    Validated against the resolver simulation to within ~1%.
    """
    if not 0 <= p < 1:
        raise ValueError("p must be within [0, 1)")
    cumulative = (0.0, 1.5, 4.5, 10.5)
    num = 0.0
    den = 0.0
    weight = 1.0
    for burn in cumulative:
        num += weight * burn
        den += weight
        weight *= p
    return num / den


def drop_for_impact(target_impact: float, baseline_ms: float) -> float:
    """Per-attempt drop probability producing ``target_impact`` as the
    mean Equation-1 impact against a server with ``baseline_ms`` RTT.

    Inverts :func:`expected_retry_burn_s` by bisection. Targets beyond
    the backoff ladder's reach saturate at p=0.95.
    """
    if target_impact <= 1.0 or baseline_ms <= 0:
        return 0.0
    target_burn = (target_impact - 1.0) * baseline_ms / 1000.0
    lo, hi = 0.0, 0.95
    if expected_retry_burn_s(hi) <= target_burn:
        return hi
    for _ in range(60):
        mid = (lo + hi) / 2
        if expected_retry_burn_s(mid) < target_burn:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def rate_for_drop(p_target: float, capacity_pps: float,
                  cost_factor: float = 4.0) -> float:
    """Attack rate producing per-attempt drop probability ``p_target``
    at the server stage (``cost_factor`` = capacity cost per packet)."""
    if not 0 <= p_target < 1:
        raise ValueError("p_target must be within [0, 1)")
    if p_target == 0:
        return 0.0
    utilization = HEADROOM / (1.0 - p_target)
    return utilization * capacity_pps / cost_factor


# ---------------------------------------------------------------------------
# Scenario infrastructure (providers + domains beyond the generated set)
# ---------------------------------------------------------------------------


def install_scenario_infrastructure(world: World, gen) -> None:
    """Add the Russian case-study providers and their domains."""
    rng = world.rngs.stream("scenarios")
    internet = world.internet

    # mil.ru: three nameservers on a single /24, one ASN (§5.2.3 calls
    # this the textbook illustration of poor resilience).
    mod_org = internet.add_org("Russian Ministry of Defense", country="RU")
    mod_as = internet.add_as(mod_org, number=204172, country="RU")
    mod_profile = DeploymentProfile(
        ProfileKind.SELF_HOSTED, n_nameservers=3, n_prefixes=1,
        server_capacity_pps=30_000.0, link_bps=1e9)
    mod = build_provider(internet, rng, "Russian MoD", mod_org, [mod_as],
                         mod_profile, weight=0.0, ns_domain="mil.ru")
    world.add_provider(mod)
    for name in ("mil.ru", "минобороны.рф", "recruit-mil.ru"):
        world.directory.add(DomainName(name), mod, _delegation_for(mod, None, name))

    # RZD railways: three nameservers on two /24s, one ASN.
    rzd_org = internet.add_org("RZD Railways", country="RU")
    rzd_as = internet.add_as(rzd_org, number=204732, country="RU")
    rzd_profile = DeploymentProfile(
        ProfileKind.SELF_HOSTED, n_nameservers=3, n_prefixes=2,
        server_capacity_pps=20_000.0, link_bps=1e9)
    rzd = build_provider(internet, rng, "RZD", rzd_org, [rzd_as],
                         rzd_profile, weight=0.0, ns_domain="rzd.ru")
    world.add_provider(rzd)
    world.directory.add(DomainName("rzd.ru"), rzd, _delegation_for(rzd, None, "rzd.ru"))


# ---------------------------------------------------------------------------
# Scripted attacks
# ---------------------------------------------------------------------------


def transip_campaigns(world: World) -> List[Campaign]:
    transip = world.providers["TransIP"]
    a, b, c = transip.nameservers[:3]

    dec = Campaign("transip-december-2020")
    # A's heavy vector ends at midnight; impairment persists ~8 h
    # (aftermath), matching OpenINTEL's observation window.
    dec.add(Attack(
        victim_ip=a.ip,
        window=Window(parse_ts("2020-11-30 22:00"), parse_ts("2020-12-01 00:00")),
        vectors=[AttackVector.tcp_syn(PORT_DNS, TRANSIP_DEC_PPS[0])],
        impairment=ImpairmentProfile(aftermath_s=8 * HOUR, aftermath_load=0.9),
        spoof_pool_size=TRANSIP_DEC_POOLS[0]))
    for ns, pps, pool in zip((b, c), TRANSIP_DEC_PPS[1:], TRANSIP_DEC_POOLS[1:]):
        dec.add(Attack(
            victim_ip=ns.ip,
            window=Window(parse_ts("2020-11-30 22:00"), parse_ts("2020-12-01 12:30")),
            vectors=[AttackVector.tcp_syn(PORT_DNS, pps)],
            spoof_pool_size=pool))

    mar = Campaign("transip-march-2021")
    for ns, pps, pool in zip((a, b, c), TRANSIP_MAR_PPS, TRANSIP_MAR_POOLS):
        mar.add(Attack(
            victim_ip=ns.ip,
            window=Window(parse_ts("2021-03-01 19:00"), parse_ts("2021-03-02 01:00")),
            vectors=[AttackVector.tcp_syn(PORT_DNS, pps)],
            # TransIP deployed IP-level scrubbing during this attack; it
            # kept the impact window aligned with the telescope window
            # (no aftermath) without fully absorbing the load.
            impairment=ImpairmentProfile(scrub_delay_s=90 * MINUTE,
                                         scrub_efficiency=0.35),
            spoof_pool_size=pool))
    return [dec, mar]


def russia_campaigns(world: World) -> List[Campaign]:
    mod = world.providers["Russian MoD"]
    milru = Campaign("mil-ru-march-2022")
    blackout_start = parse_ts("2022-03-12 00:00")
    blackout_end = parse_ts("2022-03-17 06:00")
    for ns in mod.nameservers:
        milru.add(Attack(
            victim_ip=ns.ip,
            window=Window(parse_ts("2022-03-11 10:00"), parse_ts("2022-03-18 20:00")),
            vectors=[
                # Telescope-visible vector is modest; the severe component
                # is a reflected volumetric flood, invisible to the
                # telescope (§5.2.1: newspapers reported a severe attack
                # while the telescope saw modest intensity). The 1400-byte
                # flood saturates the single shared /24 uplink.
                AttackVector.tcp_syn(PORT_DNS, 30_000.0),
                AttackVector(PROTO_UDP, (PORT_HTTP,), 200_000.0,
                             Spoofing.REFLECTED, 1400),
            ],
            impairment=ImpairmentProfile(
                blackout_start=blackout_start,
                blackout_s=blackout_end - blackout_start)))

    rzd = world.providers["RZD"]
    rzd_campaign = Campaign("rzd-march-2022")
    attack_start = parse_ts("2022-03-08 15:30")
    attack_end = parse_ts("2022-03-08 20:45")
    recovery = parse_ts("2022-03-09 06:00")
    for ns in rzd.nameservers:
        rzd_campaign.add(Attack(
            victim_ip=ns.ip,
            window=Window(attack_start, attack_end),
            vectors=[AttackVector.udp_flood(PORT_DNS, 800_000.0)],
            # §5.2.2: the domain stays unresolvable overnight (we model
            # an upstream block until 06:00) and is only *intermittently*
            # responsive from 06:00 (a decaying residual load tail).
            impairment=ImpairmentProfile(
                blackout_start=attack_end,
                blackout_s=recovery - attack_end,
                aftermath_s=int((recovery - attack_end) * 1.35),
                aftermath_load=0.5)))
    return [milru, rzd_campaign]


def failure_case_campaigns(world: World) -> List[Campaign]:
    """nic.ru (100% failure), Euskaltel (~83%), Contabo (19 h / ~30x)."""
    campaigns = []

    nicru = world.providers["nic.ru"]
    c1 = Campaign("nic-ru-march-2022")
    for ns in nicru.nameservers:
        c1.add(Attack(
            victim_ip=ns.ip,
            window=Window(parse_ts("2022-03-05 14:00"), parse_ts("2022-03-05 16:00")),
            vectors=[AttackVector.udp_flood(PORT_DNS, 25_000_000.0)]))
    campaigns.append(c1)

    euskaltel = world.providers["Euskaltel"]
    c2 = Campaign("euskaltel-2021")
    for ns in euskaltel.nameservers:
        c2.add(Attack(
            victim_ip=ns.ip,
            window=Window(parse_ts("2021-06-15 11:00"), parse_ts("2021-06-15 12:00")),
            vectors=[AttackVector.udp_flood(PORT_DNS, 80_000.0)]))
    campaigns.append(c2)

    contabo = world.providers["Contabo"]
    c3 = Campaign("contabo-19h")
    # The paper's outlier: a 19-hour attack with a moderate ~30x impact.
    for ns in contabo.nameservers:
        rate = rate_for_drop(drop_for_impact(30.0, ns.base_rtt_ms),
                             ns.capacity_pps)
        c3.add(Attack(
            victim_ip=ns.ip,
            window=Window(parse_ts("2021-09-12 01:00"), parse_ts("2021-09-12 20:00")),
            vectors=[AttackVector.udp_flood(PORT_DNS, rate)]))
    campaigns.append(c3)

    beeline = world.providers["Beeline RU"]
    c4 = Campaign("beeline-march-2022")
    for i, start in enumerate(("2022-03-03 10:00", "2022-03-07 18:00",
                               "2022-03-12 09:00", "2022-03-19 15:00",
                               "2022-03-25 12:00")):
        ns = beeline.nameservers[i % len(beeline.nameservers)]
        c4.add(Attack(
            victim_ip=ns.ip,
            window=Window(parse_ts(start), parse_ts(start) + 45 * MINUTE),
            vectors=[AttackVector.tcp_syn(PORT_DNS, 30_000.0)]))
    campaigns.append(c4)
    return campaigns


def table6_campaigns(world: World) -> List[Campaign]:
    """One tuned attack per Table 6 company, hitting the paper's
    reported impact factor against each server's actual baseline."""
    campaigns = []
    for (name, target_impact, kind), date in zip(TABLE6_TARGETS, TABLE6_DATES):
        provider = world.providers[name]
        campaign = Campaign(f"table6-{provider.slug}")
        start = parse_ts(date)
        cost_factor, make_vector = _VECTOR_KINDS[kind]
        for ns in provider.nameservers:
            p_target = drop_for_impact(target_impact, ns.base_rtt_ms)
            if p_target <= 0:
                continue
            if ns.anycast is not None:
                site = ns.anycast.site_for_region(VANTAGE_REGION)
                capacity = site.capacity_pps / max(site.catchment_weight, 1e-9)
            else:
                capacity = ns.capacity_pps
            rate = rate_for_drop(p_target, capacity, cost_factor=cost_factor)
            campaign.add(Attack(
                victim_ip=ns.ip,
                # Two hours: long enough for the daily crawl to clear the
                # >=5-measured-domains event threshold on these small
                # deployments at the reproduction's population scale.
                window=Window(start, start + 2 * HOUR),
                vectors=[make_vector(rate)]))
        campaigns.append(campaign)
    return campaigns


def mega_peak_campaigns(world: World) -> List[Campaign]:
    """Eight attacks on the largest deployments (Figure 5's 10M-domain
    peaks, scaled): huge absolute rates, negligible per-site impact."""
    megas = [world.providers["Cloudflare"], world.providers["Google"]]
    campaigns = []
    for i, date in enumerate(MEGA_PEAK_MONTHS):
        provider = megas[i % 2]
        campaign = Campaign(f"mega-peak-{i}")
        start = parse_ts(date)
        for ns in provider.nameservers:
            campaign.add(Attack(
                victim_ip=ns.ip,
                window=Window(start, start + 35 * MINUTE),
                vectors=[AttackVector.tcp_syn(PORT_HTTP, 900_000.0)]))
        campaigns.append(campaign)
    return campaigns


def scenario_attacks(world: World) -> List[Attack]:
    """All scripted attacks, clipped to the world's timeline."""
    campaigns: List[Campaign] = []
    campaigns.extend(transip_campaigns(world))
    campaigns.extend(russia_campaigns(world))
    campaigns.extend(failure_case_campaigns(world))
    campaigns.extend(table6_campaigns(world))
    campaigns.extend(mega_peak_campaigns(world))
    timeline = world.timeline
    out: List[Attack] = []
    for campaign in campaigns:
        for attack in campaign.attacks:
            if attack.window.start in timeline and attack.window.end <= timeline.end:
                out.append(attack)
    return out
