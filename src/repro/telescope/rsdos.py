"""RSDoS inference: turning backscatter into attack events.

Applies Moore-et-al-style thresholds to per-victim backscatter streams
(minimum packets, minimum duration, minimum breadth across the darknet)
and merges windows separated by less than an inactivity gap into one
inferred attack — the unit counted in Tables 1 and 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    TypeVar,
)

from repro.telescope.backscatter import FeedRecord
from repro.telescope.darknet import EXTRAPOLATION
from repro.util.timeutil import FIVE_MINUTES, HOUR, Window


# Noise-rejection thresholds for attack inference, after Moore et al. /
# CAIDA's RSDoS curation: at least 25 backscatter packets, at least 60
# seconds of activity, and breadth across at least 2 darknet /16s (a
# single-/16 stream is more likely scanning or misconfiguration than
# uniform spoofing). Windows separated by more than ``GAP_S`` of silence
# split into distinct attacks (Jonker et al. use about an hour).
MIN_PACKETS = 25
MIN_DURATION_S = 60
MIN_SLASH16 = 2
GAP_S = 1 * HOUR


def attack_problem(obj: object) -> Optional[str]:
    """Why ``obj`` is not a well-formed :class:`InferredAttack` record
    (``None`` when it is fine).

    The schema gate for every consumer of the feed: the chaos feed
    hardening (:meth:`repro.chaos.FaultInjector.harden_feed`), the
    reactive worker and the dataset join all use it to route damaged
    records (truncated rows, out-of-range addresses, swapped windows,
    NaN rates) to dead letters, invalid counts or rejections instead of
    letting them crash an analysis or leak NaNs into one.
    """
    if not isinstance(obj, InferredAttack):
        return f"not an InferredAttack: {type(obj).__name__}"
    if not isinstance(obj.victim_ip, int) or isinstance(obj.victim_ip, bool):
        return f"victim_ip not an int: {type(obj.victim_ip).__name__}"
    if not 0 <= obj.victim_ip < 2 ** 32:
        return f"victim_ip outside IPv4 space: {obj.victim_ip}"
    if not isinstance(obj.start, int) or not isinstance(obj.end, int):
        return "window bounds must be ints"
    if obj.end <= obj.start:
        return f"empty or inverted window: [{obj.start}, {obj.end})"
    if obj.n_packets < 0:
        return f"negative packet count: {obj.n_packets}"
    if not math.isfinite(obj.max_ppm) or obj.max_ppm < 0:
        return f"invalid max_ppm: {obj.max_ppm}"
    if obj.n_unique_sources < 0 or obj.n_windows < 1:
        return "invalid source/window counters"
    return None


@dataclass
class InferredAttack:
    """One RSDoS-inferred attack against one victim IP."""

    victim_ip: int
    start: int
    end: int
    n_packets: int
    max_ppm: float
    max_slash16: int
    n_unique_sources: int
    proto: int
    first_port: int
    n_ports: int
    n_windows: int

    @property
    def window(self) -> Window:
        return Window(self.start, self.end)

    @property
    def duration_s(self) -> int:
        return self.end - self.start

    def inferred_victim_pps(self) -> float:
        """The paper's footnote-2 extrapolation: ppm x 341 / 60."""
        return self.max_ppm * EXTRAPOLATION / 60.0

    def inferred_attacker_ips(self) -> float:
        """Unique darknet sources scaled to the full IPv4 space."""
        return self.n_unique_sources * EXTRAPOLATION


W = TypeVar("W")
A = TypeVar("A")


def gap_groups(windows: Sequence[W], gap_s: int) -> Iterator[List[W]]:
    """Runs of one victim's ``windows`` (sorted by ``window_ts``), split
    wherever two consecutive windows lie more than ``gap_s`` apart."""
    group: List[W] = []
    for window in windows:
        if group and window.window_ts - group[-1].window_ts > gap_s:
            yield group
            group = []
        group.append(window)
    if group:
        yield group


def infer_groups(windows: Iterable[W], gap_s: int,
                 finalize: Callable[[int, List[W]], Optional[A]],
                 kept: Optional[List[W]] = None) -> List[A]:
    """The inference walk both telescope branches share.

    Buckets ``windows`` (any order) by victim; each :func:`gap_groups`
    run of one victim's time-sorted windows is a candidate attack that
    ``finalize(victim_ip, group)`` keeps (returning the attack) or drops
    (returning ``None``: the branch's thresholds). Returns the kept
    attacks sorted by ``(start, victim_ip)``; when ``kept`` is a list,
    the windows of every kept group are appended to it.
    """
    by_victim: Dict[int, List[W]] = {}
    for window in windows:
        by_victim.setdefault(window.victim_ip, []).append(window)
    attacks: List[A] = []
    for victim_ip, victim_windows in by_victim.items():
        victim_windows.sort(key=lambda w: w.window_ts)
        for group in gap_groups(victim_windows, gap_s):
            attack = finalize(victim_ip, group)
            if attack is not None:
                attacks.append(attack)
                if kept is not None:
                    kept.extend(group)
    attacks.sort(key=lambda a: (a.start, a.victim_ip))
    return attacks


class RSDoSClassifier:
    """Groups window records into inferred attacks."""

    def infer(self, records: Iterable[FeedRecord],
              kept: Optional[List[FeedRecord]] = None
              ) -> List[InferredAttack]:
        """Classify a stream of window records (any order) into
        inferred attacks, dropping sub-threshold noise.

        When ``kept`` is a list, the records of every group that became
        an attack are appended to it: exactly the records some inferred
        attack's window contains, since each group is a time-sorted run
        of one victim's 300 s-aligned windows.
        """
        return infer_groups(records, GAP_S, self._finalize, kept)

    def _finalize(self, victim_ip: int,
                  group: List[FeedRecord]) -> Optional[InferredAttack]:
        n_packets = sum(o.n_packets for o in group)
        if n_packets < MIN_PACKETS:
            return None
        if max(o.n_slash16 for o in group) < MIN_SLASH16:
            return None
        start = group[0].window_ts
        end = group[-1].window_ts + FIVE_MINUTES
        if end - start < MIN_DURATION_S:
            return None
        # First port/proto: from the earliest window (the feed's "first
        # observed port").
        first = group[0]
        return InferredAttack(
            victim_ip=victim_ip,
            start=start,
            end=end,
            n_packets=n_packets,
            max_ppm=max(o.max_ppm for o in group),
            max_slash16=max(o.n_slash16 for o in group),
            n_unique_sources=max(o.n_unique_sources for o in group),
            proto=first.proto,
            first_port=first.first_port,
            n_ports=max(o.n_ports for o in group),
            n_windows=len(group),
        )
