"""Fault policies: what can go wrong, how often, and in what bursts.

A :class:`FaultPolicy` assigns a probability to each fault kind on one
*surface* (the transport, the RSDoS feed, the measurement store, or a
stream processor). A :class:`ChaosConfig` composes one policy per
surface under a single chaos seed, so an entire faulted run is
reproducible from ``(world seed, chaos seed)`` alone.

Fault draws come from the injector's own named RNG streams (see
:mod:`repro.util.rng`), never from the world's: enabling chaos perturbs
*what the pipeline sees*, not how the ground truth evolves.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

__all__ = ["FaultPolicy", "ChaosConfig", "FAULT_KINDS"]

#: Every fault kind an injector can log (surface-dependent subset applies).
FAULT_KINDS = (
    "drop",          # record or reply silently lost
    "corrupt",       # field-level damage (invalid IPs, NaNs, swapped windows)
    "truncate",      # record cut mid-serialization (unparseable remainder)
    "duplicate",     # record delivered twice
    "reorder",       # record swapped with its predecessor
    "exception",     # transient processor failure (retryable)
    "clock_skew",    # timestamp perturbed
    "missing_day",   # a whole OpenINTEL day vanishes for one NSSet
    "crash",         # the worker process dies mid-run (restartable)
)

_PROB_FIELDS = ("drop_p", "corrupt_p", "truncate_p", "duplicate_p",
                "reorder_p", "exception_p", "clock_skew_p", "missing_day_p",
                "crash_p")


@dataclass(frozen=True)
class FaultPolicy:
    """Per-fault probabilities for one surface, plus burst behaviour.

    ``burst_len`` > 1 makes faults arrive in runs: once a fault of some
    kind fires, the next ``burst_len - 1`` opportunities of that kind
    fire too — modelling correlated loss (a congested path drops many
    datagrams in a row, not one in a thousand uniformly).
    """

    drop_p: float = 0.0
    corrupt_p: float = 0.0
    truncate_p: float = 0.0
    duplicate_p: float = 0.0
    reorder_p: float = 0.0
    exception_p: float = 0.0
    clock_skew_p: float = 0.0
    max_clock_skew_s: int = 0
    missing_day_p: float = 0.0
    crash_p: float = 0.0
    burst_len: int = 1

    def __post_init__(self) -> None:
        for name in _PROB_FIELDS:
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {p}")
        if self.max_clock_skew_s < 0:
            raise ValueError("max_clock_skew_s must be non-negative")
        if self.clock_skew_p > 0 and self.max_clock_skew_s == 0:
            raise ValueError("clock_skew_p > 0 requires max_clock_skew_s > 0")
        if self.burst_len < 1:
            raise ValueError("burst_len must be >= 1")

    @property
    def is_null(self) -> bool:
        """True when no fault can ever fire (zero-probability everywhere)."""
        return all(getattr(self, name) == 0.0 for name in _PROB_FIELDS)

    def scaled(self, factor: float) -> "FaultPolicy":
        """A copy with every probability multiplied by ``factor`` (capped
        at 1), for dialing a preset up or down."""
        if factor < 0:
            raise ValueError("factor must be non-negative")
        changes = {name: min(1.0, getattr(self, name) * factor)
                   for name in _PROB_FIELDS}
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class ChaosConfig:
    """One fault policy per surface, under a single chaos seed.

    Surfaces:

    - ``transport``: the resolver-to-nameserver datagram path (drops,
      reply corruption as SERVFAIL, clock skew on the query instant).
    - ``feed``: the RSDoS attack stream entering the join (drops,
      corruption, truncation, duplicates, reordering).
    - ``store``: the measurement store after the crawl (whole missing
      OpenINTEL days, corrupt 5-minute buckets).
    - ``processor``: the feed hardening's validation attempts
      (transient, retryable faults; see
      :meth:`~repro.chaos.FaultInjector.harden_feed`).
    - ``worker``: the reactive campaign worker (``crash_p`` per 5-minute
      tick — the worker dies and is restarted from its last checkpoint).
      Null in every study preset; the reactive platform's chaos-soak and
      ``repro reactive --chaos`` enable it via :meth:`reactive_preset`.
    """

    seed: int = 0
    transport: FaultPolicy = field(default_factory=FaultPolicy)
    feed: FaultPolicy = field(default_factory=FaultPolicy)
    store: FaultPolicy = field(default_factory=FaultPolicy)
    processor: FaultPolicy = field(default_factory=FaultPolicy)
    worker: FaultPolicy = field(default_factory=FaultPolicy)

    @property
    def is_null(self) -> bool:
        return (self.transport.is_null and self.feed.is_null
                and self.store.is_null and self.processor.is_null
                and self.worker.is_null)

    @classmethod
    def preset(cls, level: str = "moderate", seed: int = 0) -> "ChaosConfig":
        """A named fault schedule: ``light``, ``moderate``, or ``heavy``.

        ``moderate`` is calibrated so a study completes with every
        analysis intact but visibly degraded (the chaos suite's
        default); ``heavy`` stresses burst loss and is expected to
        dead-letter a noticeable share of the feed.
        """
        try:
            factor = {"light": 0.4, "moderate": 1.0, "heavy": 2.5}[level]
        except KeyError:
            raise ValueError(f"unknown chaos level: {level!r}") from None
        return cls(
            seed=seed,
            transport=FaultPolicy(drop_p=0.01, corrupt_p=0.005,
                                  clock_skew_p=0.005, max_clock_skew_s=120,
                                  burst_len=3).scaled(factor),
            feed=FaultPolicy(drop_p=0.02, corrupt_p=0.02, truncate_p=0.01,
                             duplicate_p=0.02, reorder_p=0.02).scaled(factor),
            store=FaultPolicy(missing_day_p=0.01,
                              corrupt_p=0.01).scaled(factor),
            processor=FaultPolicy(exception_p=0.02).scaled(factor),
        )

    @classmethod
    def reactive_preset(cls, level: str = "moderate",
                        seed: int = 0) -> "ChaosConfig":
        """A worker-kill-only schedule for the reactive platform.

        Only the ``worker`` surface is armed (``crash_p`` per tick), so
        a chaos-soaked reactive run must produce a probe store
        *bit-identical* to an unfaulted one — kills are recovered
        exactly-once from checkpoints, and no other fault perturbs what
        the probes observe.
        """
        try:
            crash_p = {"light": 0.01, "moderate": 0.03, "heavy": 0.08}[level]
        except KeyError:
            raise ValueError(f"unknown chaos level: {level!r}") from None
        return cls(seed=seed, worker=FaultPolicy(crash_p=crash_p))

    def describe(self) -> str:
        """One line per non-null surface, for logs and CLI output."""
        lines = []
        for surface in ("transport", "feed", "store", "processor", "worker"):
            policy: FaultPolicy = getattr(self, surface)
            if policy.is_null:
                continue
            probs = ", ".join(
                f"{name[:-2]}={getattr(policy, name):.3g}"
                for name in _PROB_FIELDS if getattr(policy, name) > 0)
            burst = f", burst={policy.burst_len}" if policy.burst_len > 1 else ""
            lines.append(f"{surface}: {probs}{burst}")
        return "\n".join(lines) if lines else "(no faults enabled)"
