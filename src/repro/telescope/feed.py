"""The curated RSDoS feed: records, container, serialization.

Mirrors CAIDA's published schema: one record per (victim, 5-minute
window) with protocol, first targeted port, number of unique ports,
peak packet rate, and darknet /16 breadth — plus the attack-level
aggregation (:class:`repro.telescope.rsdos.InferredAttack`) that the
longitudinal tables count.
"""

from __future__ import annotations

import csv
from dataclasses import fields
from functools import cached_property
from typing import Callable, Iterable, List, Sequence, TextIO

from repro.attacks.model import Attack
from repro.telescope.backscatter import BackscatterSimulator, FeedRecord
from repro.telescope.darknet import EXTRAPOLATION
from repro.telescope.rsdos import InferredAttack, RSDoSClassifier
from repro.net.ip import ip_to_str, parse_ip


def ppm_to_victim_pps(ppm: float) -> float:
    """Footnote 2 of the paper: telescope ppm -> global victim pps."""
    return ppm * EXTRAPOLATION / 60.0


class RSDoSFeed:
    """The full curated dataset: window records + inferred attacks."""

    def __init__(self, records: Sequence[FeedRecord],
                 attacks: Sequence[InferredAttack]):
        self.records: List[FeedRecord] = sorted(
            records, key=lambda r: (r.window_ts, r.victim_ip))
        self.attacks: List[InferredAttack] = sorted(
            attacks, key=lambda a: (a.start, a.victim_ip))

    @cached_property
    def records(self) -> List[FeedRecord]:
        # Only a deferred feed reaches this: ``__init__``'s instance
        # attribute shadows it, and so does the built list once cached.
        return self._build_records()

    # -- construction -----------------------------------------------------------

    @classmethod
    def observe(cls, ground_truth: Iterable[Attack],
                simulator: BackscatterSimulator) -> "RSDoSFeed":
        """Run the full telescope pipeline over a ground-truth schedule."""
        observed = list(simulator.observe_all(ground_truth))
        # Curated records keep only windows belonging to inferred attacks.
        records: List[FeedRecord] = []
        inferred = RSDoSClassifier().infer(observed, kept=records)
        return cls(records, inferred)

    @classmethod
    def deferred(cls, attacks: Sequence[InferredAttack],
                 build_records: Callable[[], List[FeedRecord]]
                 ) -> "RSDoSFeed":
        """A feed holding ``attacks`` (already in feed order) whose
        ``records`` are built by ``build_records()`` the first time
        something reads them.

        The phase cache restores feeds this way: the join reads only
        the attacks, so most warm runs never build a record.
        """
        feed = cls.__new__(cls)
        feed.attacks = list(attacks)
        feed._build_records = build_records
        return feed

    # -- queries ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.attacks)

    # -- serialization (CSV, CAIDA-flavoured) --------------------------------------

    _RECORD_FIELDS = [f.name for f in fields(FeedRecord)]

    def dump_records(self, fp: TextIO) -> None:
        writer = csv.writer(fp)
        writer.writerow(self._RECORD_FIELDS)
        for r in self.records:
            writer.writerow([
                r.window_ts, ip_to_str(r.victim_ip), r.proto, r.first_port,
                r.n_ports, r.n_packets, f"{r.max_ppm:.3f}", r.n_slash16,
                r.n_unique_sources])

    @classmethod
    def load_records(cls, fp: TextIO) -> List[FeedRecord]:
        reader = csv.reader(fp)
        header = next(reader, None)
        if header != cls._RECORD_FIELDS:
            raise ValueError("unexpected feed header")
        out = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(cls._RECORD_FIELDS):
                raise ValueError(f"line {lineno}: wrong field count")
            out.append(FeedRecord(
                window_ts=int(row[0]), victim_ip=parse_ip(row[1]),
                proto=int(row[2]), first_port=int(row[3]), n_ports=int(row[4]),
                n_packets=int(row[5]), max_ppm=float(row[6]),
                n_slash16=int(row[7]), n_unique_sources=int(row[8])))
        return out
