"""Deterministic, named random-number streams.

Every stochastic component of the simulation (attack scheduling, spoofed
source sampling, resolver nameserver choice, ...) draws from its own
named stream derived from a single root seed. Components therefore stay
reproducible *independently*: adding draws to one stream never perturbs
another, which keeps scenario outputs stable as the library evolves.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Dict, Sequence, TypeVar

T = TypeVar("T")

_SEED_BYTES = 8


def derive_seed(root_seed: int, *names: str) -> int:
    """Derive a child seed from ``root_seed`` and a path of stream names.

    Uses BLAKE2b over the root seed and the name path, so the mapping is
    stable across Python versions and processes (unlike ``hash()``).
    """
    h = hashlib.blake2b(digest_size=_SEED_BYTES)
    h.update(str(int(root_seed)).encode("ascii"))
    for name in names:
        h.update(b"\x00")
        h.update(name.encode("utf-8"))
    return int.from_bytes(h.digest(), "big")


def seed_prefix(root_seed: int, *names: str) -> hashlib.blake2b:
    """:func:`derive_seed`'s hash state for ``root_seed`` and ``names``,
    fed up to the separator of one more name.

    For a hot loop deriving many seeds under one prefix::

        h = prefix.copy()
        h.update(name.encode("utf-8"))
        int.from_bytes(h.digest(), "big")  # == derive_seed(root, *names, name)

    which skips re-hashing the prefix on every derivation.
    """
    h = hashlib.blake2b(digest_size=_SEED_BYTES)
    h.update(str(int(root_seed)).encode("ascii"))
    for name in names:
        h.update(b"\x00")
        h.update(name.encode("utf-8"))
    h.update(b"\x00")
    return h


def derive_rng(root_seed: int, *names: str) -> random.Random:
    """A fresh ``random.Random`` seeded from ``derive_seed(root_seed, *names)``.

    The workhorse of worker-count-invariant parallelism: a unit of work
    keyed by, say, ``(seed, domain_id, day)`` draws from its own derived
    stream, so its samples are identical no matter which process runs it
    or how many units ran before it.
    """
    return random.Random(derive_seed(root_seed, *names))


class RngStreams:
    """A family of independent :class:`random.Random` streams.

    >>> streams = RngStreams(42)
    >>> a = streams.stream("attacks")
    >>> b = streams.stream("resolver")
    >>> a is streams.stream("attacks")
    True
    """

    def __init__(self, root_seed: int):
        self.root_seed = int(root_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, *names: str) -> random.Random:
        """Return (creating if needed) the stream for the given name path."""
        key = "\x00".join(names)
        rng = self._streams.get(key)
        if rng is None:
            rng = random.Random(derive_seed(self.root_seed, *names))
            self._streams[key] = rng
        return rng

    def spawn_seed(self, *names: str) -> int:
        """Derive a raw integer seed (for APIs that take seeds, not RNGs)."""
        return derive_seed(self.root_seed, "seed", *names)


def poisson(rng: random.Random, lam: float) -> int:
    """A Poisson(``lam``) count drawn from ``rng``.

    Knuth's multiplication method, one uniform per unit of the count,
    switching to a rounded normal approximation above ``lam = 1000``.
    The telescope's seeded outputs depend on this exact draw sequence.
    """
    if lam <= 0:
        return 0
    if lam > 1000:
        return max(0, int(round(rng.gauss(lam, math.sqrt(lam)))))
    limit = math.exp(-lam)
    draw = rng.random
    k = 0
    p = draw()
    while p > limit:
        k += 1
        p *= draw()
    return k


def weighted_choice(rng: random.Random, items: Sequence[T], weights: Sequence[float]) -> T:
    """Pick one item with probability proportional to its weight."""
    if len(items) != len(weights):
        raise ValueError("items and weights must have the same length")
    if not items:
        raise ValueError("cannot choose from an empty sequence")
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    x = rng.random() * total
    acc = 0.0
    for item, w in zip(items, weights):
        acc += w
        if x < acc:
            return item
    return items[-1]
