"""Reflector-query inference: the amplification telescope branch.

Amplification attacks produce no backscatter — the victim never answers
the darknet, because the flood arrives *from* the amplifiers, spoofed
as legitimate responses. What the darknet does see is the attacker's
query spray: amplifier lists are harvested by scanning and go stale,
and the stale entries that fall inside the telescope receive the same
DNS queries (source spoofed as the victim) as the live amplifiers. Each
query's *source* address therefore names the victim, and a burst of
identical queries from one "source" across several darknet targets is
the signature of an ongoing reflection attack ("The Far Side of DNS
Amplification" flavour).

This module mirrors the RSDoS pipeline one layer over:

=====================  ==========================
backscatter branch     reflector branch
=====================  ==========================
FeedRecord             :class:`ReflectorObservation`
RSDoSClassifier        :class:`ReflectorClassifier`
InferredAttack         :class:`InferredReflection`
RSDoSFeed              :class:`ReflectorFeed`
=====================  ==========================

The feed converts each :class:`InferredReflection` into a regular
:class:`~repro.telescope.rsdos.InferredAttack` (UDP/53, rate
extrapolated through the BAF) so the *unmodified* dataset join consumes
the merged curated feed — the second feed the scenario-pack layer
promises, without a pipeline fork.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.attacks.model import Attack
from repro.net.ports import PORT_DNS, PROTO_UDP
from repro.telescope.darknet import Darknet
from repro.telescope.rsdos import GAP_S, InferredAttack, infer_groups
from repro.util.rng import derive_rng, poisson
from repro.util.timeutil import FIVE_MINUTES, Window

__all__ = ["ReflectorObservation",
           "InferredReflection", "ReflectorSimulator",
           "ReflectorClassifier", "ReflectorFeed", "match_reflections"]


@dataclass(frozen=True)
class ReflectorObservation:
    """Darknet-side aggregate of one victim's reflector queries in one
    5-minute window."""

    window_ts: int
    victim_ip: int          # the spoofed query *source* = the victim
    n_queries: int
    max_qpm: float          # peak queries/minute within the window
    n_dark_targets: int     # distinct stale list entries hit
    qtype: str

    def __post_init__(self) -> None:
        if self.n_queries < 0:
            raise ValueError("query count must be non-negative")


# Noise rejection for reflector-query inference. A real spray revisits
# its list: demand at least ``MIN_QUERIES`` queries spread over
# ``MIN_WINDOWS`` windows and ``MIN_DARK_TARGETS`` distinct darknet
# addresses (a single-target stream is a scanner, not a reflection
# attack). Bursts separated by more than the RSDoS branch's ``GAP_S`` of
# silence split into distinct attacks.
MIN_QUERIES = 20
MIN_WINDOWS = 2
MIN_DARK_TARGETS = 3


@dataclass
class InferredReflection:
    """One inferred reflection attack against one victim IP."""

    victim_ip: int
    start: int
    end: int
    n_queries: int
    max_qpm: float
    max_dark_targets: int
    qtype: str
    n_windows: int
    #: mean BAF assumed when extrapolating victim-side rate (the
    #: simulator stamps the ground-truth value; a real deployment would
    #: use the qtype's published amplification factor).
    assumed_baf: float = 1.0

    @property
    def window(self) -> Window:
        return Window(self.start, self.end)

    @property
    def duration_s(self) -> int:
        return self.end - self.start

    def inferred_victim_pps(self, list_share: float,
                            extrapolation_queries: float) -> float:
        """Victim-side rate implied by the darknet's query view: scale
        the observed per-minute spray back to the full amplifier list,
        then through the amplification factor."""
        return (self.max_qpm / 60.0) * extrapolation_queries \
            * self.assumed_baf / max(list_share, 1e-12)

    def to_inferred(self) -> InferredAttack:
        """The reflection as a join-compatible inferred attack.

        Reflection floods arrive at the victim as UDP/53 responses, so
        the record presents as a DNS-port attack; ``max_ppm`` carries
        the query-rate view (the BAF extrapolation stays a method on
        this class — the join only needs ports and windows).
        """
        return InferredAttack(
            victim_ip=self.victim_ip,
            start=self.start,
            end=self.end,
            n_packets=self.n_queries,
            max_ppm=self.max_qpm,
            max_slash16=max(1, self.max_dark_targets),
            n_unique_sources=1,  # all queries spoof the one victim
            proto=PROTO_UDP,
            first_port=PORT_DNS,
            n_ports=1,
            n_windows=self.n_windows,
        )


class ReflectorSimulator:
    """Samples per-window reflector-query observations from ground truth.

    Every draw comes from a stream derived from ``(jitter_seed,
    victim_ip, window_ts)`` — a pure function of what is being observed,
    so observations are identical whether attacks are processed
    serially, batched, or in any order (the same contract the
    backscatter jitter streams honour).
    """

    def __init__(self, darknet: Darknet, jitter_seed: int):
        self.darknet = darknet
        self.jitter_seed = jitter_seed

    def observe_attack(self, attack: Attack) -> List[ReflectorObservation]:
        """All 5-minute reflector observations of one attack. Empty
        unless the attack is an amplification with stale list entries
        inside the telescope."""
        if not attack.reflector_visible:
            return []
        amp = attack.amplification
        assert amp is not None
        n_dark = amp.darknet_list_entries
        # The attacker spreads query_pps uniformly over its list; the
        # darknet's share of that spray is its share of list entries.
        dark_qps = amp.query_pps * n_dark / amp.n_amplifiers
        observations: List[ReflectorObservation] = []
        for ts in attack.window.buckets(FIVE_MINUTES):
            w_start = max(ts, attack.window.start)
            w_end = min(ts + FIVE_MINUTES, attack.window.end)
            seconds = w_end - w_start
            if seconds <= 0:
                continue
            mid = (w_start + w_end) // 2
            # Scrubbing upstream of the victim does not silence the
            # query spray, but the attack stopping does.
            if attack.effective_pps(mid) <= 0 \
                    and not attack.window.contains(mid):
                continue
            rng = derive_rng(self.jitter_seed, "reflector",
                             str(attack.victim_ip), str(ts))
            n_queries = poisson(rng, dark_qps * seconds)
            if n_queries == 0:
                continue
            targets = self._expected_unique_targets(n_queries, n_dark)
            qpm = n_queries / max(seconds / 60.0, 1e-9)
            max_qpm = qpm * (1.0 + abs(rng.gauss(0.0, 0.05)))
            observations.append(ReflectorObservation(
                window_ts=ts, victim_ip=attack.victim_ip,
                n_queries=n_queries, max_qpm=max_qpm,
                n_dark_targets=max(1, int(round(targets))),
                qtype=amp.qtype))
        return observations

    def observe_all(self, attacks: Iterable[Attack]
                    ) -> Iterator[ReflectorObservation]:
        for attack in attacks:
            yield from self.observe_attack(attack)

    @staticmethod
    def _expected_unique_targets(n_queries: int, n_dark: int) -> float:
        """Coupon-collector expectation of distinct stale entries hit."""
        if n_queries <= 0 or n_dark <= 0:
            return 0.0
        return n_dark * (1.0 - math.exp(-n_queries / n_dark))


class ReflectorClassifier:
    """Groups reflector observations into inferred reflections."""

    def infer(self, observations: Iterable[ReflectorObservation],
              kept: Optional[List[ReflectorObservation]] = None
              ) -> List[InferredReflection]:
        """Classify observations (any order) into inferred reflections,
        dropping sub-threshold noise.

        When ``kept`` is a list, the observations of every group that
        became a reflection are appended to it, as
        :meth:`RSDoSClassifier.infer` does for its records.
        """
        return infer_groups(observations, GAP_S, self._finalize, kept)

    def _finalize(self, victim_ip: int,
                  group: List[ReflectorObservation]
                  ) -> Optional[InferredReflection]:
        n_queries = sum(o.n_queries for o in group)
        if n_queries < MIN_QUERIES:
            return None
        if len(group) < MIN_WINDOWS:
            return None
        if max(o.n_dark_targets for o in group) < MIN_DARK_TARGETS:
            return None
        return InferredReflection(
            victim_ip=victim_ip,
            start=group[0].window_ts,
            end=group[-1].window_ts + FIVE_MINUTES,
            n_queries=n_queries,
            max_qpm=max(o.max_qpm for o in group),
            max_dark_targets=max(o.n_dark_targets for o in group),
            qtype=group[0].qtype,
            n_windows=len(group),
        )


class ReflectorFeed:
    """The curated reflector-query dataset: observations, inferred
    reflections, and their join-compatible projection."""

    def __init__(self, observations: Iterable[ReflectorObservation],
                 reflections: Iterable[InferredReflection]):
        self.observations: List[ReflectorObservation] = sorted(
            observations, key=lambda o: (o.window_ts, o.victim_ip))
        self.reflections: List[InferredReflection] = sorted(
            reflections, key=lambda r: (r.start, r.victim_ip))

    @classmethod
    def observe(cls, ground_truth: Iterable[Attack],
                simulator: ReflectorSimulator,
                baf_of: Optional[Dict[int, float]] = None) -> "ReflectorFeed":
        """Run the reflector branch over a ground-truth schedule.

        ``baf_of`` maps victim IPs to the mean BAF to stamp on the
        inferred reflections (the simulator builds it from ground truth
        when asked via :meth:`observe_world_truth`).
        """
        # Curated observations keep only windows belonging to inferred
        # reflections (the same curation step the RSDoS feed applies).
        curated: List[ReflectorObservation] = []
        reflections = ReflectorClassifier().infer(
            simulator.observe_all(ground_truth), kept=curated)
        if baf_of:
            for r in reflections:
                r.assumed_baf = baf_of.get(r.victim_ip, r.assumed_baf)
        return cls(curated, reflections)

    def __len__(self) -> int:
        return len(self.reflections)

    def inferred_attacks(self) -> List[InferredAttack]:
        """The reflections projected into the join's record type."""
        return [r.to_inferred() for r in self.reflections]


def match_reflections(ground_truth: Iterable[Attack],
                      reflections: Iterable[InferredReflection]
                      ) -> List[Tuple[Attack, Optional[InferredReflection]]]:
    """Pair each reflector-visible ground-truth attack with the
    overlapping inferred reflection on the same victim (``None`` when
    the darknet missed it) — the validation harness the acceptance
    criterion asks for."""
    by_victim: Dict[int, List[InferredReflection]] = {}
    for r in reflections:
        by_victim.setdefault(r.victim_ip, []).append(r)
    out: List[Tuple[Attack, Optional[InferredReflection]]] = []
    for attack in ground_truth:
        if not attack.reflector_visible:
            continue
        hit = None
        for r in by_victim.get(attack.victim_ip, ()):
            if r.start < attack.window.end and attack.window.start < r.end:
                hit = r
                break
        out.append((attack, hit))
    return out
