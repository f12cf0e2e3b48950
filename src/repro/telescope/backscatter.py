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
from math import exp
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from repro.attacks.model import Attack
from repro.net.ip import IPV4_SPACE
from repro.telescope.darknet import Darknet
from repro.util.rng import derive_rng, poisson, seed_prefix
from repro.util.timeutil import FIVE_MINUTES
from repro.world.capacity import HEADROOM, overload_drop

# A callable the world provides: inbound-link utilization of the victim
# at an instant (0.0 for victims we model no link for).
LinkUtilFn = Callable[[int, int], float]


@dataclass(frozen=True)
class FeedRecord:
    """One curated feed row: the telescope's aggregate for one victim in
    one 5-minute window."""

    window_ts: int
    victim_ip: int
    proto: int
    first_port: int
    n_ports: int
    n_packets: int
    max_ppm: float
    n_slash16: int
    n_unique_sources: int       # distinct darknet addresses hit


class BackscatterSimulator:
    """Samples per-window telescope observations from ground truth."""

    def __init__(self, darknet: Darknet, rng: random.Random,
                 link_util_fn: Optional[LinkUtilFn] = None,
                 jitter_seed: Optional[int] = None):
        self.darknet = darknet
        self.rng = rng
        self.link_util_fn = link_util_fn or (lambda ip, ts: 0.0)
        #: root of the per-(victim, window) max_ppm jitter streams. The
        #: jitter must not ride the shared ``rng``: an inline draw per
        #: emitted window couples a window's jitter to how many windows
        #: were processed before it (and to ``Random.gauss``'s cached
        #: pair), which silently diverges under any batched/reordered
        #: processing. One draw here keys the whole family to the
        #: simulator's seed instead.
        self.jitter_seed = (jitter_seed if jitter_seed is not None
                            else rng.getrandbits(64))
        #: reseeded in place per (victim, window); a reseed also clears
        #: ``gauss``'s cached pair, so it draws what a fresh
        #: ``derive_rng`` stream would.
        self._jitter_rng = random.Random()

    # -- per-attack observation -------------------------------------------------

    def observe_attack(self, attack: Attack) -> List[FeedRecord]:
        """All 5-minute window records the telescope makes of one
        attack. Empty when no vector is randomly spoofed.

        Per window, the same floats in the same order as
        :meth:`Attack.effective_spoofed_pps`, :func:`overload_drop`, the
        :class:`Darknet` expectations and :meth:`window_jitter`."""
        if not attack.telescope_visible:
            return []
        spoofed_vectors = [v for v in attack.vectors
                           if v.spoofing.telescope_visible]
        proto = spoofed_vectors[0].proto
        ports = tuple(dict.fromkeys(p for v in spoofed_vectors for p in v.ports))
        first_port = ports[0] if ports else 0
        n_ports = max(1, len(ports))
        victim_ip = attack.victim_ip
        start, end = attack.window.start, attack.window.end
        # effective_spoofed_pps inside the window: the full rate, or the
        # scrubbed one from ``scrub_from`` on, times the spoofed share.
        total = attack.total_pps
        share = attack.spoofed_pps / total
        full_pps = total * share
        imp = attack.impairment
        if imp.scrub_efficiency > 0:
            scrub_from = start + imp.scrub_delay_s
            scrubbed_pps = total * (1.0 - imp.scrub_efficiency) * share
        else:
            scrub_from, scrubbed_pps = end, full_pps
        response_ratio = attack.response_ratio
        headroom = HEADROOM
        coverage = self.darknet.coverage
        blocks = self.darknet.n_slash16s
        pool = attack.spoof_pool_size or IPV4_SPACE
        pool_in_darknet = pool * coverage
        link_util_fn = self.link_util_fn
        rng = self.rng
        jitter_prefix = seed_prefix(self.jitter_seed, str(victim_ip))
        reseed, gauss = self._jitter_rng.seed, self._jitter_rng.gauss
        cum_packets = 0.0

        records: List[FeedRecord] = []
        for ts in attack.window.buckets(FIVE_MINUTES):
            w_start = max(ts, start)
            w_end = min(ts + FIVE_MINUTES, end)
            seconds = w_end - w_start
            if seconds <= 0:
                continue
            mid = (w_start + w_end) // 2
            spoofed_pps = full_pps if mid < scrub_from else scrubbed_pps
            if spoofed_pps <= 0:
                continue
            link_util = link_util_fn(victim_ip, mid)
            respond = (response_ratio if link_util <= headroom else
                       (1.0 - (1.0 - headroom / link_util)) * response_ratio)
            n_packets = poisson(rng, spoofed_pps * respond * seconds * coverage)
            if n_packets == 0:
                continue
            # Cumulative distinct darknet sources so far (saturating at
            # the spoof pool's darknet share).
            cum_packets += n_packets
            unique_sources = pool_in_darknet * (
                1.0 - exp(-cum_packets / pool_in_darknet))
            n_slash16 = round(blocks * (1.0 - exp(-n_packets / blocks)))
            h = jitter_prefix.copy()
            h.update(str(ts).encode("utf-8"))
            reseed(int.from_bytes(h.digest(), "big"))
            max_ppm = n_packets / (seconds / 60.0) * (
                1.0 + abs(gauss(0.0, 0.05)))
            records.append(FeedRecord(
                ts, victim_ip, proto, first_port, n_ports, n_packets,
                max_ppm, max(1, n_slash16), round(unique_sources)))
        return records

    def window_jitter(self, victim_ip: int, window_ts: int) -> float:
        """The peak-rate jitter factor of one (victim, window) pair.

        Drawn from a stream derived from ``(jitter_seed, victim_ip,
        window_ts)``, so it is a pure function of what is being observed
        — identical whether windows are processed serially, batched, or
        in any order.
        """
        jr = derive_rng(self.jitter_seed, str(victim_ip), str(window_ts))
        return 1.0 + abs(jr.gauss(0.0, 0.05))

    def observe_all(self, attacks: Iterable[Attack]) -> Iterator[FeedRecord]:
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
            respond = (1.0 - overload_drop(link_util)) \
                * attack.response_ratio
            expected = spoofed_pps * respond * self.darknet.coverage
            for _ in range(poisson(self.rng, expected)):
                packets.append((ts, self.darknet.sample_address(self.rng)))
        return packets
