"""Concrete fault artifacts: what a damaged record looks like.

Corruption here is *realistic* damage — the kinds of malformed rows a
real attack-time telemetry pipeline emits (Nawrocki et al. stress that
attack-window data is inherently lossy and corrupt): out-of-range
victim addresses, swapped window bounds, NaN rates, negative counters,
and records cut mid-serialization. Downstream stages must dead-letter
these or reject them with a reason — never crash, and never let a NaN
reach an analysis.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

from repro.telescope.rsdos import InferredAttack

__all__ = ["TruncatedRecord", "corrupt_attack", "truncate_attack"]


@dataclass(frozen=True)
class TruncatedRecord:
    """A record cut mid-serialization: only a byte prefix survived.

    Carries the prefix so dead-letter forensics can show what arrived;
    exposes none of the original record's attributes, which is exactly
    why validation must catch it by type, not by field access.
    """

    payload: str
    n_bytes: int

    def __repr__(self) -> str:
        return f"TruncatedRecord({self.payload!r}..., {self.n_bytes}B)"


_NAN = float("nan")


def corrupt_attack(attack: InferredAttack, rng: random.Random) -> InferredAttack:
    """Field-level damage to one feed record (style chosen by ``rng``)."""
    style = rng.randrange(5)
    if style == 0:      # victim address outside the IPv4 space
        return dataclasses.replace(attack, victim_ip=2 ** 32 + rng.randrange(1000))
    if style == 1:      # window bounds swapped (end precedes start)
        return dataclasses.replace(attack, start=attack.end, end=attack.start)
    if style == 2:      # rate column became NaN
        return dataclasses.replace(attack, max_ppm=_NAN)
    if style == 3:      # negative packet counter (integer underflow)
        return dataclasses.replace(attack, n_packets=-attack.n_packets - 1)
    # stringly-typed victim column (schema drift)
    return dataclasses.replace(attack, victim_ip=f"{attack.victim_ip:#x}")  # type: ignore[arg-type]


def truncate_attack(attack: InferredAttack, rng: random.Random) -> TruncatedRecord:
    """Replace a feed record with its serialized prefix."""
    serialized = repr(attack)
    cut = rng.randrange(1, max(2, len(serialized) // 2))
    return TruncatedRecord(payload=serialized[:cut], n_bytes=cut)
