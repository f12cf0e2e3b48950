"""Quarterly anycast census (MAnycast2 analog).

The paper labels nameserver /24s as anycast by matching them against
quarterly census snapshots (Jan 2021 .. Jan 2022), treating the census
as a *lower bound*: a /24 the census missed is silently treated as
unicast. The simulated census reproduces both the /24 matching and the
imperfect recall.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Set, TextIO

from repro.net.ip import ip_to_str, parse_ip, slash24_of
from repro.util.rng import derive_seed
from repro.util.timeutil import parse_ts

CENSUS_DATES = ("2021-01-01", "2021-04-01", "2021-07-01", "2021-10-01",
                "2022-01-01")
#: chance that one snapshot detects one anycast /24.
CENSUS_RECALL = 0.92


@dataclass
class CensusSnapshot:
    """One quarterly snapshot: the set of /24s detected as anycast."""

    taken_at: int
    anycast_slash24s: Set[int] = field(default_factory=set)

    def is_anycast(self, ip: int) -> bool:
        """Is the /24 containing ``ip`` in this snapshot's anycast set?"""
        return slash24_of(ip) in self.anycast_slash24s

    def __len__(self) -> int:
        return len(self.anycast_slash24s)


class AnycastCensus:
    """The full quarterly census series with point-in-time lookup."""

    def __init__(self, snapshots: Optional[List[CensusSnapshot]] = None):
        self.snapshots: List[CensusSnapshot] = sorted(
            snapshots or [], key=lambda s: s.taken_at)

    def add_snapshot(self, snapshot: CensusSnapshot) -> None:
        self.snapshots.append(snapshot)
        self.snapshots.sort(key=lambda s: s.taken_at)

    def snapshot_for(self, ts: int) -> Optional[CensusSnapshot]:
        """The most recent snapshot at or before ``ts`` (or the earliest
        one, mirroring the paper's use of the Jan-2021 census for
        Nov/Dec-2020 data)."""
        if not self.snapshots:
            return None
        chosen = self.snapshots[0]
        for snap in self.snapshots:
            if snap.taken_at <= ts:
                chosen = snap
            else:
                break
        return chosen

    def is_anycast(self, ip: int, ts: int) -> bool:
        snap = self.snapshot_for(ts)
        return bool(snap and snap.is_anycast(ip))

    def label_nsset(self, ns_ips: Iterable[int], ts: int) -> str:
        """Label an NSSet ``anycast`` / ``partial`` / ``unicast``.

        ``anycast``: every nameserver /24 detected as anycast;
        ``partial``: at least one but not all (paper's partial anycast);
        ``unicast``: none.
        """
        ips = list(ns_ips)
        if not ips:
            return "unicast"
        flags = [self.is_anycast(ip, ts) for ip in ips]
        if all(flags):
            return "anycast"
        if any(flags):
            return "partial"
        return "unicast"

    # -- construction from ground truth --------------------------------------

    @classmethod
    def observe_world(cls, seed: int,
                      anycast_ips: Iterable[int]) -> "AnycastCensus":
        """Simulate the census observing the world's true anycast IPs.

        Each snapshot independently detects each anycast /24 with
        probability ``CENSUS_RECALL`` — the lower-bound character the
        paper relies on. False positives are not modeled (MAnycast2's
        methodology errs toward missing, not inventing, anycast).
        """
        slash24s = sorted({slash24_of(ip) for ip in anycast_ips})
        census = cls()
        for date in CENSUS_DATES:
            ts = parse_ts(date)
            rng = random.Random(derive_seed(seed, "census", date))
            snap = CensusSnapshot(taken_at=ts)
            for s24 in slash24s:
                if rng.random() < CENSUS_RECALL:
                    snap.anycast_slash24s.add(s24)
            census.add_snapshot(snap)
        return census

    # -- serialization --------------------------------------------------------

    def dump(self, fp: TextIO) -> None:
        for snap in self.snapshots:
            fp.write(json.dumps({
                "taken_at": snap.taken_at,
                "slash24s": [ip_to_str(s) for s in sorted(snap.anycast_slash24s)],
            }) + "\n")

    @classmethod
    def load(cls, fp: TextIO) -> "AnycastCensus":
        census = cls()
        for lineno, line in enumerate(fp, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                snap = CensusSnapshot(taken_at=int(row["taken_at"]))
                for text in row["slash24s"]:
                    snap.anycast_slash24s.add(parse_ip(text))
                census.add_snapshot(snap)
            except (KeyError, ValueError, TypeError) as exc:
                raise ValueError(f"line {lineno}: malformed census row") from exc
        return census
