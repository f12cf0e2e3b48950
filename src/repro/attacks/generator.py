"""Attack schedule generation.

Produces the 17-month attack landscape the telescope and OpenINTEL then
observe. The empirical mixes come straight from the paper's §6:

* DNS-infrastructure attacks are ~0.6-2.1% of all attacks (Table 3);
* 80.7% of them are single-port; protocol mix TCP 90.4% / UDP 8.4% /
  ICMP 1.2%; TCP ports 80 (37%) > 53 (30%) > 443 (~20%); one third of
  UDP attacks hit port 53 (Figure 6);
* durations are bimodal around 15 minutes and 1 hour (Figure 10);
* telescope-inferred intensities are bimodal around 50 and 6000 packets
  per minute at the telescope, i.e. ~284 pps and ~34 Kpps of victim
  response traffic after the x341/60 extrapolation (§6.4);
* a tail of attacks is reflected/unspoofed and therefore invisible to
  the telescope (§4.3; ~40% per Jonker et al.), and some visible attacks
  carry an extra invisible vector (multi-vector under-estimation).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.attacks.model import Attack, AttackVector, Spoofing
from repro.net.ip import slash24_of
from repro.net.ports import PORT_DNS, PORT_HTTP, PORT_HTTPS, PROTO_ICMP, PROTO_TCP, PROTO_UDP
from repro.util.rng import weighted_choice
from repro.util.timeutil import DAY, HOUR, MINUTE, Timeline, Window, month_key

# Victim-response pps corresponding to the paper's bimodal telescope
# modes (50 ppm and 6000 ppm, extrapolated by x341/60).
LOW_MODE_PPS = 284.0
HIGH_MODE_PPS = 34_100.0


@dataclass(frozen=True)
class AttackMix:
    """Protocol/port mixture for generated attacks."""

    single_port_fraction: float = 0.807
    proto_weights: Tuple[Tuple[int, float], ...] = (
        (PROTO_TCP, 0.904), (PROTO_UDP, 0.084), (PROTO_ICMP, 0.012))
    tcp_port_weights: Tuple[Tuple[int, float], ...] = (
        (PORT_HTTP, 0.37), (PORT_DNS, 0.30), (PORT_HTTPS, 0.20),
        (22, 0.05), (25, 0.03), (8080, 0.05))
    udp_port_weights: Tuple[Tuple[int, float], ...] = (
        (PORT_DNS, 0.334), (123, 0.12), (443, 0.10), (19, 0.10),
        (11211, 0.08), (27015, 0.266))

    def pick_proto(self, rng: random.Random) -> int:
        protos, weights = zip(*self.proto_weights)
        return weighted_choice(rng, protos, weights)

    def pick_ports(self, rng: random.Random, proto: int) -> Tuple[int, ...]:
        if proto == PROTO_ICMP:
            return ()
        table = self.tcp_port_weights if proto == PROTO_TCP else self.udp_port_weights
        ports, weights = zip(*table)
        first = weighted_choice(rng, ports, weights)
        if rng.random() < self.single_port_fraction:
            return (first,)
        extra = rng.randint(1, 4)
        chosen = [first]
        for _ in range(extra):
            port = rng.randrange(1, 0xFFFF)
            if port not in chosen:
                chosen.append(port)
        return tuple(chosen)


# A generic mix for non-DNS victims (web/gaming/hosting): dominated by
# TCP 80/443 and game-server UDP ports.
GENERIC_MIX = AttackMix(
    single_port_fraction=0.75,
    proto_weights=((PROTO_TCP, 0.80), (PROTO_UDP, 0.17), (PROTO_ICMP, 0.03)),
    tcp_port_weights=((PORT_HTTP, 0.45), (PORT_HTTPS, 0.25), (22, 0.08),
                      (25, 0.05), (3074, 0.07), (8080, 0.10)),
    udp_port_weights=((27015, 0.35), (3074, 0.20), (123, 0.10),
                      (PORT_DNS, 0.10), (19, 0.10), (11211, 0.15)),
)


@dataclass(frozen=True)
class HotTarget:
    """A frequently-attacked IP (Table 5's public resolvers etc.).

    ``n_attacks`` is the paper-scale count; the generator multiplies by
    the schedule's ``scale``.
    """

    ip: int
    n_attacks: int
    label: str = ""


@dataclass
class TargetCatalog:
    """Victim pools the generator draws from.

    ``ns_ip_weights`` maps nameserver IPs to a selection weight (we use
    the square root of hosted-domain counts: big providers attract more
    attacks, sub-linearly). ``other_ips`` are non-DNS victims.
    """

    ns_ip_weights: Dict[int, float] = field(default_factory=dict)
    other_ips: List[int] = field(default_factory=list)
    hot_targets: List[HotTarget] = field(default_factory=list)
    #: nameserver IP -> all nameserver IPs of the same deployment; used
    #: by campaign-style attacks that hit every NS at once (the pattern
    #: of every §5 case study: "the attacker targeted all three
    #: nameservers").
    ns_groups: Dict[int, Tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not all(w > 0 for w in self.ns_ip_weights.values()):
            raise ValueError("nameserver weights must be positive")


# Shape of the generated schedule (paper §6).
#: share of all attacks aimed at a nameserver (paper: 0.57%..2.12%,
#: avg 1.21%, Table 3).
DNS_ATTACK_FRACTION = 0.0075
#: share of DNS attacks that hit every nameserver of the deployment.
CAMPAIGN_FRACTION = 0.22
INVISIBLE_FRACTION = 0.12        # reflected/unspoofed only
MULTI_VECTOR_FRACTION = 0.10     # visible + invisible extra vector
COLOCATED_FRACTION = 0.04        # hits a non-NS IP in an NS /24
HIGH_INTENSITY_FRACTION = 0.30   # bimodal mixture weight
MID_INTENSITY_FRACTION = 0.10    # between the two modes
HEAVY_TAIL_FRACTION = 0.03       # very large attacks
LONG_DURATION_FRACTION = 0.04    # multi-hour background noise


def sample_duration(rng: random.Random) -> int:
    """Bimodal attack duration: modes at ~15 min and ~1 h (Figure 10)."""
    roll = rng.random()
    if roll < LONG_DURATION_FRACTION:
        return int(rng.uniform(2 * HOUR, 20 * HOUR))
    if roll < LONG_DURATION_FRACTION + 0.48:
        mode = 15 * MINUTE
    else:
        mode = 1 * HOUR
    value = rng.lognormvariate(math.log(mode), 0.35)
    return max(5 * MINUTE, min(int(value), 24 * HOUR))


def sample_intensity(rng: random.Random) -> float:
    """Bimodal victim-response pps (the §6.4 50/6000 ppm modes), with a
    mid-range component and a heavy tail of very large attacks."""
    roll = rng.random()
    if roll < HEAVY_TAIL_FRACTION:
        return rng.lognormvariate(math.log(HIGH_MODE_PPS * 10), 0.7)
    if roll < HEAVY_TAIL_FRACTION + HIGH_INTENSITY_FRACTION:
        return rng.lognormvariate(math.log(HIGH_MODE_PPS), 0.9)
    if roll < (HEAVY_TAIL_FRACTION + HIGH_INTENSITY_FRACTION
               + MID_INTENSITY_FRACTION):
        return rng.lognormvariate(math.log(4_000.0), 0.7)
    return rng.lognormvariate(math.log(LOW_MODE_PPS), 0.8)


def _build_vectors(rng: random.Random, mix: AttackMix, pps: float,
                   visible: bool) -> List[AttackVector]:
    proto = mix.pick_proto(rng)
    ports = mix.pick_ports(rng, proto)
    spoofing = Spoofing.RANDOM if visible else rng.choice(
        (Spoofing.REFLECTED, Spoofing.UNSPOOFED))
    packet_bytes = 60 if proto == PROTO_TCP else 1400
    vectors = [AttackVector(proto, ports, pps, spoofing, packet_bytes)]
    if visible and rng.random() < MULTI_VECTOR_FRACTION:
        # Extra invisible vector the telescope under-counts (§6.4).
        extra_pps = pps * rng.uniform(0.5, 3.0)
        extra_proto = PROTO_UDP if proto == PROTO_TCP else PROTO_TCP
        extra_ports = mix.pick_ports(rng, extra_proto)
        vectors.append(AttackVector(extra_proto, extra_ports, extra_pps,
                                    Spoofing.REFLECTED))
    return vectors


def generate_schedule(rng: random.Random, timeline: Timeline,
                      catalog: TargetCatalog, attacks_per_month: int,
                      scale: float) -> List[Attack]:
    """Generate the background attack schedule over the timeline:
    ``attacks_per_month`` on average, plus each hot target's paper-scale
    count times ``scale``.

    Scripted case-study campaigns (TransIP, mil.ru, ...) are added on
    top of this by :mod:`repro.world.scenarios`.
    """
    dns_mix = AttackMix()
    ns_ips = list(catalog.ns_ip_weights)
    ns_weights = [catalog.ns_ip_weights[ip] for ip in ns_ips]
    attacks: List[Attack] = []

    month_bounds = _month_bounds(timeline)
    for (year, month), (m_start, m_end) in month_bounds.items():
        n = attacks_per_month
        n = max(0, int(rng.gauss(n, n * 0.18))) if n else 0
        for _ in range(n):
            start = rng.randrange(m_start, m_end)
            duration = sample_duration(rng)
            pps = sample_intensity(rng)
            visible = rng.random() >= INVISIBLE_FRACTION
            if ns_ips and rng.random() < DNS_ATTACK_FRACTION:
                victim = weighted_choice(rng, ns_ips, ns_weights)
                vectors = _build_vectors(rng, dns_mix, pps, visible)
                group = catalog.ns_groups.get(victim, ())
                if len(group) > 1 and rng.random() < CAMPAIGN_FRACTION:
                    window = Window(start, start + duration)
                    for ip in group:
                        attacks.append(Attack(victim_ip=ip, window=window,
                                              vectors=list(vectors)))
                    continue
            elif ns_ips and rng.random() < COLOCATED_FRACTION:
                # A co-tenant of a nameserver /24: stresses the shared
                # link but is not itself DNS infrastructure.
                base = slash24_of(rng.choice(ns_ips))
                victim = base | rng.randrange(1, 255)
                if victim in catalog.ns_ip_weights:
                    victim = base | 254
                vectors = _build_vectors(rng, GENERIC_MIX, pps, visible)
            else:
                victim = rng.choice(catalog.other_ips) if catalog.other_ips else 1 << 24
                vectors = _build_vectors(rng, GENERIC_MIX, pps, visible)
            attacks.append(Attack(
                victim_ip=victim,
                window=Window(start, start + duration),
                vectors=vectors,
            ))

    attacks.extend(_hot_target_attacks(rng, catalog, scale, month_bounds))
    attacks.sort(key=lambda a: (a.window.start, a.victim_ip))
    return attacks


def _hot_target_attacks(rng: random.Random, catalog: TargetCatalog,
                        scale: float, month_bounds: Dict[Tuple[int, int], Tuple[int, int]]
                        ) -> List[Attack]:
    """Frequent low-impact attacks against hot targets (Table 5)."""
    out: List[Attack] = []
    eligible = list(month_bounds.values())
    if not eligible:
        return out
    for hot in catalog.hot_targets:
        n = max(1, int(round(hot.n_attacks * scale)))
        for _ in range(n):
            m_start, m_end = rng.choice(eligible)
            start = rng.randrange(m_start, m_end)
            duration = sample_duration(rng)
            # Hot targets are mostly hit by the low mode: heavily
            # provisioned anycast services shrug these off (Table 5).
            pps = rng.lognormvariate(math.log(LOW_MODE_PPS * 4), 0.9)
            vectors = _build_vectors(rng, GENERIC_MIX, pps, visible=True)
            out.append(Attack(hot.ip, Window(start, start + duration), vectors))
    return out


def _month_bounds(timeline: Timeline) -> Dict[Tuple[int, int], Tuple[int, int]]:
    bounds: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for day in timeline.days():
        key = month_key(day)
        start, end = bounds.get(key, (day, day))
        bounds[key] = (min(start, day), max(end, day + DAY))
    return bounds
