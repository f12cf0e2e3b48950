"""Synthetic production-rate trigger load for soak and bench runs.

The RSDoS feed a real deployment sees is bursty: broad DDoS waves hit
many nameservers at once, separated by quiet stretches.
:func:`synthetic_triggers` reproduces that shape against a simulated
world's *actual* nameserver addresses, so every well-formed trigger
survives the pipeline's victim-is-a-nameserver join and the platform
faces genuine concurrent-campaign pressure — thousands of triggers in
one run, far beyond what the world's own attack schedule generates.

:func:`fast_transport` replaces the world's capacity-model transport
with a pure hash-derived reply sampler: deterministic in
``(ns_ip, qname, ts)`` (so replay after a worker kill is bit-identical)
and cheap enough to probe millions of times in a soak.
"""

from __future__ import annotations

from typing import List

from repro.dns.server import ServerReply
from repro.telescope.rsdos import InferredAttack
from repro.util.rng import derive_rng, derive_seed
from repro.util.timeutil import FIVE_MINUTES, HOUR, MINUTE, parse_ts
from repro.world.simulation import World

__all__ = ["fast_transport", "synthetic_triggers"]

#: The unconditional drop share of :func:`fast_transport`.
FAST_LOSS = 0.1


def synthetic_triggers(world: World, n: int, *, seed: int = 0,
                       invalid_share: float = 0.0) -> List[InferredAttack]:
    """``n`` bursty attack triggers against the world's nameservers.

    From the world's first day, triggers arrive in waves of up to 12
    simultaneous attacks lasting 10 minutes to 2 hours, with up to 2
    hours of quiet between waves — the overload shape admission control
    exists for. ``invalid_share`` > 0
    damages that share of records (negative packet counts, inverted
    windows) so the worker's invalid-trigger path sees traffic too.
    Returned sorted by ``(start, victim_ip)``; deterministic in
    ``(world, n, seed)``.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0.0 <= invalid_share <= 1.0:
        raise ValueError("invalid_share must be within [0, 1]")
    ns_ips = sorted(world.directory.nameserver_ips())
    if not ns_ips:
        raise ValueError("world has no nameservers to attack")
    rng = derive_rng(seed, "reactive.synth")
    attacks: List[InferredAttack] = []
    wave_ts = parse_ts(world.config.start)
    while len(attacks) < n:
        burst = min(rng.randint(1, 12), n - len(attacks))
        for _ in range(burst):
            victim = rng.choice(ns_ips)
            start = wave_ts + rng.randrange(0, FIVE_MINUTES)
            duration = rng.randint(10 * MINUTE, 2 * HOUR)
            attack = InferredAttack(
                victim_ip=victim,
                start=start,
                end=start + duration,
                n_packets=rng.randint(25, 50_000),
                max_ppm=float(rng.randint(10, 5_000)),
                max_slash16=rng.randint(2, 64),
                n_unique_sources=rng.randint(1, 2_000),
                proto=rng.choice((6, 17)),
                first_port=rng.randrange(0, 65_536),
                n_ports=rng.randint(1, 8),
                n_windows=max(1, duration // FIVE_MINUTES))
            if invalid_share > 0.0 and rng.random() < invalid_share:
                attack = _damage(attack, rng)
            attacks.append(attack)
        wave_ts += FIVE_MINUTES + rng.randrange(0, 2 * HOUR + 1)
    attacks.sort(key=lambda a: (a.start, a.victim_ip))
    return attacks


def _damage(attack: InferredAttack, rng) -> InferredAttack:
    """Break one schema invariant so ``attack_problem`` rejects it."""
    kind = rng.randrange(3)
    if kind == 0:
        attack.n_packets = -attack.n_packets
    elif kind == 1:
        attack.end = attack.start  # empty window
    else:
        attack.max_ppm = float("nan")
    return attack


def fast_transport(seed: int = 0):
    """A pure, hash-derived reply sampler for soak/bench scale.

    Every reply is a function of ``(ns_ip, qname, ts)`` alone: the same
    probe replayed after a worker kill observes the same reply, which
    is what makes recovered probe stores bit-identical. A
    :data:`FAST_LOSS` share of probes is dropped; answered probes get
    an RTT spread over [5, 125) ms.
    """
    def transport(ns_ip, qname, qtype, ts) -> ServerReply:
        loss = FAST_LOSS
        unit = derive_seed(seed, "reactive.fast", str(ns_ip), str(qname),
                           str(int(ts))) / 2 ** 64
        if unit < loss:
            return ServerReply.dropped()
        # Reuse the draw's upper range as the RTT unit so one hash
        # covers both decisions.
        rtt_unit = (unit - loss) / (1.0 - loss) if loss < 1.0 else 0.0
        return ServerReply.ok(round(5.0 + rtt_unit * 120.0, 3))

    return transport
