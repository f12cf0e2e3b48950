"""The seeded fault injector: wraps pipeline surfaces, logs every fault.

One :class:`FaultInjector` drives a whole faulted run. It owns its own
:class:`repro.util.rng.RngStreams` family (derived from the chaos seed,
independent of the world's streams), so:

- the same ``(world seed, chaos seed)`` pair always injects the same
  fault schedule — chaos runs are exactly reproducible; and
- a null policy injects nothing and perturbs nothing: wrappers with all
  probabilities at zero either return the wrapped object unchanged or
  draw no randomness, keeping disabled-chaos runs byte-identical to
  unwrapped runs.

Every fault fired is appended to :attr:`FaultInjector.events`, so a
chaos test can assert not just "the pipeline survived" but "it survived
*these specific* injected faults".
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.chaos.faults import corrupt_attack, truncate_attack
from repro.chaos.policy import ChaosConfig, FaultPolicy
from repro.dns.server import ServerReply
from repro.obs import NULL_TELEMETRY, RunTelemetry
from repro.telescope.rsdos import InferredAttack, attack_problem
from repro.util.rng import RngStreams, derive_seed

__all__ = ["DeadLetter", "FaultEvent", "FaultInjector"]

#: The feed-hardening job's name: its ``repro.stream.*`` counters carry
#: it as the ``job`` label, and :meth:`FaultInjector.summary` names it.
FEED_JOB = "feed-validate"
#: Retries after a record's first faulted validation attempt.
FEED_RETRIES = 3
#: Consecutive retry-exhausted records that open the feed's breaker.
BREAKER_FAILURE_THRESHOLD = 5
#: Flagged pass-throughs after which an open breaker half-opens.
BREAKER_RECOVERY_RECORDS = 20


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault: where, what kind, and forensic detail."""

    surface: str
    kind: str
    detail: str = ""


@dataclass(frozen=True)
class DeadLetter:
    """A feed record :meth:`FaultInjector.harden_feed` refused, with why."""

    value: Any
    offset: int       # position in the faulted feed
    reason: str


class FaultInjector:
    """Applies a :class:`ChaosConfig` to the pipeline's surfaces.

    The injector is stateful: burst continuations, the fault log and
    its RNG streams all live on this object, so one injector serves one
    run's faults in the order the run meets them.
    """

    def __init__(self, config: ChaosConfig,
                 telemetry: Optional[RunTelemetry] = None):
        self.config = config
        self.rngs = RngStreams(derive_seed(config.seed, "chaos"))
        #: the run's telemetry: every fault fired is also counted under
        #: ``repro.chaos.faults{surface,kind}``, and the feed hardening's
        #: ``repro.stream.*`` counters go to the same registry. Telemetry
        #: never feeds back into the fault schedule (no RNG draws).
        self.telemetry = telemetry or NULL_TELEMETRY
        self.events: List[FaultEvent] = []
        #: per-(surface, kind) pending burst continuations.
        self._burst_left: Dict[Tuple[str, str], int] = {}
        #: the feed records :meth:`harden_feed` refused.
        self.dead_letters: List[DeadLetter] = []
        #: (in, out, flagged, retries) of the last :meth:`harden_feed`.
        self._feed_counts: Optional[Tuple[int, int, int, int]] = None

    # -- fault firing ---------------------------------------------------------

    def _fire(self, surface: str, kind: str, p: float, rng: random.Random,
              policy: FaultPolicy, detail: str = "") -> bool:
        """Burst-aware Bernoulli draw; logs the fault when it fires.

        Draws from ``rng`` only when ``p > 0`` and no burst is pending,
        so zero-probability kinds consume no randomness at all.
        """
        key = (surface, kind)
        left = self._burst_left.get(key, 0)
        if left > 0:
            self._burst_left[key] = left - 1
        elif p > 0.0 and rng.random() < p:
            if policy.burst_len > 1:
                self._burst_left[key] = policy.burst_len - 1
        else:
            return False
        self.events.append(FaultEvent(surface, kind, detail))
        self.telemetry.registry.counter("repro.chaos.faults",
                                        surface=surface, kind=kind).inc()
        self.telemetry.journal.emit("chaos.fault", surface=surface,
                                    kind=kind, detail=detail)
        return True

    @property
    def counts(self) -> Counter:
        """Faults fired so far, keyed by (surface, kind)."""
        return Counter((e.surface, e.kind) for e in self.events)

    # -- transport ------------------------------------------------------------

    def wrap_transport(self, transport: Callable, force: bool = False) -> Callable:
        """Inject datagram loss, reply corruption, and clock skew.

        With a null transport policy the original callable is returned
        unchanged (zero overhead when chaos is off); pass ``force=True``
        to keep the armed wrapper anyway — the overhead benchmark uses
        this to price the always-armed path.
        """
        policy = self.config.transport
        if policy.is_null and not force:
            return transport
        rng = self.rngs.stream("transport")
        skew_s = policy.max_clock_skew_s

        def chaotic_transport(ns_ip, qname, qtype, when):
            if self._fire("transport", "clock_skew", policy.clock_skew_p,
                          rng, policy):
                when = when + rng.uniform(-skew_s, skew_s)
            if self._fire("transport", "drop", policy.drop_p, rng, policy):
                return ServerReply.dropped()
            reply = transport(ns_ip, qname, qtype, when)
            if self._fire("transport", "corrupt", policy.corrupt_p, rng, policy):
                # A damaged response datagram: the resolver sees a
                # parse-level failure, which surfaces as SERVFAIL.
                return ServerReply.servfail(
                    reply.rtt_ms if reply.answered else 5.0)
            return reply

        return chaotic_transport

    # -- record streams -------------------------------------------------------

    def wrap_records(self, values: Iterable[Any], surface: str = "feed",
                     corrupter: Optional[Callable] = None,
                     truncator: Optional[Callable] = None) -> List[Any]:
        """Apply drop/corrupt/truncate/duplicate/reorder faults to a
        record stream; returns the faulted list (input untouched)."""
        policy: FaultPolicy = getattr(self.config, surface)
        values = list(values)
        if policy.is_null:
            return values
        rng = self.rngs.stream(surface)
        out: List[Any] = []
        for value in values:
            if self._fire(surface, "drop", policy.drop_p, rng, policy):
                continue
            if truncator is not None and self._fire(
                    surface, "truncate", policy.truncate_p, rng, policy):
                out.append(truncator(value, rng))
                continue
            if corrupter is not None and self._fire(
                    surface, "corrupt", policy.corrupt_p, rng, policy):
                out.append(corrupter(value, rng))
                continue
            out.append(value)
            if self._fire(surface, "duplicate", policy.duplicate_p, rng, policy):
                out.append(value)
            if len(out) >= 2 and self._fire(
                    surface, "reorder", policy.reorder_p, rng, policy):
                out[-1], out[-2] = out[-2], out[-1]
        return out

    def wrap_feed(self, attacks: Iterable[InferredAttack]) -> List[Any]:
        """Fault the RSDoS feed stream (drops, corruption, truncation,
        duplicates, reordering)."""
        return self.wrap_records(attacks, "feed",
                                 corrupter=corrupt_attack,
                                 truncator=truncate_attack)

    # -- workers --------------------------------------------------------------

    def worker_crash_hook(self) -> Optional[Callable[[int], bool]]:
        """A per-tick kill switch for the reactive campaign worker.

        Returns ``None`` when the ``worker`` policy is null (the worker
        runs unwrapped, zero overhead). Otherwise returns a callable
        the worker consults once per 5-minute tick: ``True`` means the
        worker dies there (``crash`` fault logged) and must be
        restarted from its last checkpoint.
        """
        policy = self.config.worker
        if policy.is_null:
            return None
        rng = self.rngs.stream("worker")

        def should_crash(tick_ts: int) -> bool:
            return self._fire("worker", "crash", policy.crash_p, rng,
                              policy, f"tick={tick_ts}")

        return should_crash

    # -- the hardened feed path -----------------------------------------------

    def harden_feed(self, attacks: Iterable[InferredAttack]) -> List[InferredAttack]:
        """Fault the feed, then validate it record by record.

        Each record gets up to ``1 + FEED_RETRIES`` attempts; the
        ``processor`` surface may fault each one. A record whose every
        attempt faulted is dead-lettered; one that got through is
        dead-lettered if :func:`attack_problem` rejects it. A circuit
        breaker guards against fault storms:
        :data:`BREAKER_FAILURE_THRESHOLD` consecutive retry-exhausted
        records open it, and while open it passes records through
        unattempted (*flagged*), checking only :func:`attack_problem`.
        After :data:`BREAKER_RECOVERY_RECORDS` pass-throughs the next
        record is a trial: if it gets through the breaker closes, if
        not it re-opens. A record that :func:`attack_problem` rejects
        is the record's fault, not the pipeline's: it resets the
        failure run like a valid one.

        Returns the valid records in feed order; every other faulted
        record is in :attr:`dead_letters`.
        """
        faulted = self.wrap_feed(attacks)
        policy = self.config.processor
        rng = self.rngs.stream("processor")
        survivors: List[InferredAttack] = []
        letters: List[DeadLetter] = []
        failures = passthroughs = flagged = retries = opens = 0
        breaker_open = False
        for offset, value in enumerate(faulted):
            if breaker_open and passthroughs < BREAKER_RECOVERY_RECORDS:
                passthroughs += 1
                flagged += 1
                prefix = "breaker open: "
            else:
                attempts = 0
                while attempts <= FEED_RETRIES and self._fire(
                        "processor", "exception", policy.exception_p, rng,
                        policy, f"offset={offset}"):
                    attempts += 1
                if attempts > FEED_RETRIES:
                    retries += FEED_RETRIES
                    letters.append(DeadLetter(
                        value, offset, f"{attempts} attempts faulted"))
                    # Not reset when the breaker opens, so a failed
                    # half-open trial re-opens it at once.
                    failures += 1
                    if failures >= BREAKER_FAILURE_THRESHOLD:
                        breaker_open = True
                        passthroughs = 0
                        opens += 1
                    continue
                retries += attempts
                failures = 0
                breaker_open = False
                prefix = ""
            problem = attack_problem(value)
            if problem is None:
                survivors.append(value)
            else:
                letters.append(DeadLetter(value, offset, prefix + problem))
        self.dead_letters = letters
        self._feed_counts = (len(faulted), len(survivors), flagged, retries)
        registry = self.telemetry.registry
        for name, n in (("records_in", len(faulted)),
                        ("records_out", len(survivors)),
                        ("dead_letters", len(letters)),
                        ("retries", retries), ("flagged", flagged),
                        ("breaker_opens", opens)):
            registry.counter(f"repro.stream.{name}", job=FEED_JOB).inc(n)
        return survivors

    # -- the measurement store ------------------------------------------------

    def corrupt_store(self, store) -> None:
        """Damage a filled :class:`MeasurementStore` in place: whole
        missing OpenINTEL days and corrupt 5-minute buckets."""
        policy = self.config.store
        if policy.is_null:
            return
        rng = self.rngs.stream("store")
        if policy.missing_day_p > 0:
            for key in sorted(store.daily):
                if self._fire("store", "missing_day", policy.missing_day_p,
                              rng, policy, f"nsset={key[0]} day={key[1]}"):
                    del store.daily[key]
        if policy.corrupt_p > 0:
            for key in sorted(store.buckets):
                if self._fire("store", "corrupt", policy.corrupt_p,
                              rng, policy, f"nsset={key[0]} ts={key[1]}"):
                    self._corrupt_aggregate(store.buckets[key], rng)

    @staticmethod
    def _corrupt_aggregate(agg, rng: random.Random) -> None:
        """In-place damage that ``Aggregate.is_valid`` must catch."""
        style = rng.randrange(3)
        if style == 0:
            agg.rtt_sum = float("nan")        # NaN crept into a sum column
        elif style == 1:
            agg.n = -agg.n - 1                # integer underflow on a counter
        else:
            agg.ok_n = agg.n + 7              # counter drift: ok > total

    # -- reporting ------------------------------------------------------------

    def summary(self) -> str:
        """Human-readable account of everything injected so far."""
        lines = [f"chaos seed {self.config.seed}: "
                 f"{len(self.events)} faults injected"]
        for (surface, kind), n in sorted(self.counts.items()):
            lines.append(f"  {surface:<10} {kind:<12} x{n}")
        if self.dead_letters:
            lines.append(f"  dead-lettered feed records: {len(self.dead_letters)}")
        if self._feed_counts is not None:
            n_in, n_out, flagged, retries = self._feed_counts
            lines.append(f"  {FEED_JOB} job: in={n_in} out={n_out} "
                         f"dead={len(self.dead_letters)} flagged={flagged} "
                         f"retries={retries}")
        return "\n".join(lines)
