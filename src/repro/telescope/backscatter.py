"""Backscatter generation: what the darknet sees of each attack.

For every randomly-spoofed attack, the victim answers the attack packets
it can (suppressed when its uplink is saturated — §6.5's "the attack
succeeds and impedes responses"), and the uniformly-spoofed share of
those responses lands in the telescope at the coverage ratio. We
aggregate per 5-minute tumbling window, which is exactly the granularity
of CAIDA's curated feed, sampling packet counts Poisson-style rather
than materializing packets (a packet-level reference path exists for
validation in the test suite).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from repro.attacks.model import Attack
from repro.net.ip import IPV4_SPACE
from repro.telescope.darknet import Darknet
from repro.util.rng import derive_rng, poisson
from repro.util.timeutil import FIVE_MINUTES
from repro.world.capacity import overload_drop

# Victims answer attack traffic at most at this fraction of it even when
# healthy (some stacks rate-limit RSTs/ICMP).
_DEFAULT_RESPONSE_RATIO = 1.0

# A callable the world provides: inbound-link utilization of the victim
# at an instant (0.0 for victims we model no link for).
LinkUtilFn = Callable[[int, int], float]


@dataclass
class WindowObservation:
    """Telescope-side aggregate for one victim in one 5-minute window."""

    window_ts: int
    victim_ip: int
    n_packets: int
    max_ppm: float
    n_slash16: int
    n_unique_sources: int       # distinct darknet addresses hit
    proto: int
    first_port: int
    n_ports: int

    def __post_init__(self) -> None:
        if self.n_packets < 0:
            raise ValueError("packet count must be non-negative")


class BackscatterSimulator:
    """Samples per-window telescope observations from ground truth."""

    def __init__(self, darknet: Darknet, rng: random.Random,
                 link_util_fn: Optional[LinkUtilFn] = None,
                 headroom: float = 0.8,
                 jitter_seed: Optional[int] = None):
        self.darknet = darknet
        self.rng = rng
        self.link_util_fn = link_util_fn or (lambda ip, ts: 0.0)
        self.headroom = headroom
        #: root of the per-(victim, window) max_ppm jitter streams. The
        #: jitter must not ride the shared ``rng``: an inline draw per
        #: emitted window couples a window's jitter to how many windows
        #: were processed before it (and to ``Random.gauss``'s cached
        #: pair), which silently diverges under any batched/reordered
        #: processing. One draw here keys the whole family to the
        #: simulator's seed instead.
        self.jitter_seed = (jitter_seed if jitter_seed is not None
                            else rng.getrandbits(64))

    # -- per-attack observation -------------------------------------------------

    def observe_attack(self, attack: Attack) -> List[WindowObservation]:
        """All 5-minute window observations the telescope makes of one
        attack. Empty when no vector is randomly spoofed."""
        if not attack.telescope_visible:
            return []
        spoofed_vectors = [v for v in attack.vectors
                           if v.spoofing.telescope_visible]
        proto = spoofed_vectors[0].proto
        ports = tuple(dict.fromkeys(p for v in spoofed_vectors for p in v.ports))
        first_port = ports[0] if ports else 0
        pool = attack.spoof_pool_size or IPV4_SPACE
        pool_in_darknet = pool * self.darknet.coverage
        cum_packets = 0.0

        observations: List[WindowObservation] = []
        for ts in attack.window.buckets(FIVE_MINUTES):
            w_start = max(ts, attack.window.start)
            w_end = min(ts + FIVE_MINUTES, attack.window.end)
            seconds = w_end - w_start
            if seconds <= 0:
                continue
            mid = (w_start + w_end) // 2
            spoofed_pps = attack.effective_spoofed_pps(mid)
            if spoofed_pps <= 0:
                continue
            link_util = self.link_util_fn(attack.victim_ip, mid)
            respond = (1.0 - overload_drop(link_util, self.headroom)) \
                * attack.response_ratio
            response_packets = spoofed_pps * respond * seconds
            expected = self.darknet.expected_hits(response_packets)
            n_packets = poisson(self.rng, expected)
            if n_packets == 0:
                continue
            # Cumulative distinct darknet sources so far (saturating at
            # the spoof pool's darknet share).
            cum_packets += n_packets
            unique_sources = self.darknet.expected_unique_addresses(
                cum_packets, pool_in_darknet)
            n_slash16 = int(round(self.darknet.expected_unique_slash16(n_packets)))
            ppm = n_packets / max(seconds / 60.0, 1e-9)
            max_ppm = ppm * self.window_jitter(attack.victim_ip, ts)
            observations.append(WindowObservation(
                window_ts=ts, victim_ip=attack.victim_ip,
                n_packets=n_packets, max_ppm=max_ppm,
                n_slash16=max(1, n_slash16),
                n_unique_sources=int(round(unique_sources)),
                proto=proto, first_port=first_port, n_ports=max(1, len(ports))))
        return observations

    def window_jitter(self, victim_ip: int, window_ts: int) -> float:
        """The peak-rate jitter factor of one (victim, window) pair.

        Drawn from a stream derived from ``(jitter_seed, victim_ip,
        window_ts)``, so it is a pure function of what is being observed
        — identical whether windows are processed serially, batched, or
        in any order.
        """
        jr = derive_rng(self.jitter_seed, str(victim_ip), str(window_ts))
        return 1.0 + abs(jr.gauss(0.0, 0.05))

    def observe_all(self, attacks: Iterable[Attack]) -> Iterator[WindowObservation]:
        for attack in attacks:
            yield from self.observe_attack(attack)

    # -- packet-level reference path (validation) ---------------------------------

    def materialize_packets(self, attack: Attack, max_packets: int = 200_000
                            ) -> List[Tuple[int, int]]:
        """Generate individual ``(timestamp, darknet destination)``
        backscatter packets for small attacks.

        Used by tests to validate the aggregate fast path against a
        ground-truth packet stream; refuses attacks that would exceed
        ``max_packets`` expected telescope packets.
        """
        if not attack.telescope_visible:
            return []
        expected_total = (attack.spoofed_pps * attack.window.duration
                          * self.darknet.coverage)
        if expected_total > max_packets:
            raise ValueError(
                f"attack would produce ~{expected_total:.0f} telescope packets; "
                f"cap is {max_packets}")
        packets: List[Tuple[int, int]] = []
        for ts in range(attack.window.start, attack.window.end):
            spoofed_pps = attack.effective_spoofed_pps(ts)
            link_util = self.link_util_fn(attack.victim_ip, ts)
            respond = (1.0 - overload_drop(link_util, self.headroom)) \
                * attack.response_ratio
            expected = spoofed_pps * respond * self.darknet.coverage
            for _ in range(poisson(self.rng, expected)):
                packets.append((ts, self.darknet.sample_address(self.rng)))
        return packets
