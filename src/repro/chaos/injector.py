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

from repro.chaos.faults import (
    TransientFault,
    TruncatedRecord,
    corrupt_attack,
    truncate_attack,
)
from repro.chaos.policy import ChaosConfig, FaultPolicy
from repro.dns.server import ServerReply
from repro.obs import NULL_TELEMETRY, RunTelemetry
from repro.streaming.processors import (
    CircuitBreaker,
    FailFastProcessor,
    FlaggedRecord,
    Processor,
    Record,
    RetryPolicy,
    StreamJob,
)
from repro.streaming.topic import Broker
from repro.telescope.rsdos import InferredAttack, attack_problem
from repro.util.rng import RngStreams, derive_seed

__all__ = ["FaultEvent", "FaultInjector"]


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault: where, what kind, and forensic detail."""

    surface: str
    kind: str
    detail: str = ""


class _ChaoticProcessor(Processor):
    """Wraps a processor with transient-exception injection."""

    def __init__(self, inner: Processor, injector: "FaultInjector",
                 policy: FaultPolicy, rng: random.Random):
        self.inner = inner
        self._injector = injector
        self._policy = policy
        self._rng = rng

    def process(self, record: Record) -> Iterable[Any]:
        if self._injector._fire("processor", "exception",
                                self._policy.exception_p, self._rng,
                                self._policy, f"offset={record.offset}"):
            raise TransientFault(f"injected worker fault at offset {record.offset}")
        return self.inner.process(record)


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
        #: ``repro.chaos.faults{surface,kind}``, and the hardened feed
        #: job's broker/metrics hang off the same registry. Telemetry
        #: never feeds back into the fault schedule (no RNG draws).
        self.telemetry = telemetry or NULL_TELEMETRY
        self.events: List[FaultEvent] = []
        #: per-(surface, kind) pending burst continuations.
        self._burst_left: Dict[Tuple[str, str], int] = {}
        #: dead letters captured by :meth:`harden_feed` (value objects).
        self.dead_letters: List[Any] = []
        self.feed_job: Optional[StreamJob] = None
        self.feed_broker: Optional[Broker] = None

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

    # -- processors -----------------------------------------------------------

    def wrap_processor(self, processor: Processor) -> Processor:
        """Make a stream processor fail transiently with the configured
        probability (retryable :class:`TransientFault`)."""
        policy = self.config.processor
        if policy.is_null:
            return processor
        return _ChaoticProcessor(processor, self, policy,
                                 self.rngs.stream("processor"))

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
        """Fault the feed, then push it through the hardened validation
        job: retries for transient faults, a dead-letter topic for
        poison records, a circuit breaker for failure storms.

        Returns the surviving, schema-valid attacks; poison records land
        in :attr:`dead_letters` (as :class:`DeadLetter` values on the
        job's DLQ topic, with failure metadata).
        """
        faulted = self.wrap_records(list(attacks), "feed",
                                    corrupter=corrupt_attack,
                                    truncator=truncate_attack)
        broker = Broker(metrics=self.telemetry.registry)
        topic = broker.topic("rsdos-feed")
        # Offsets serve as the (monotonic) topic timestamps: chaos may
        # have reordered attack start times, which is the point.
        for i, value in enumerate(faulted):
            topic.produce(i, value)
        validator = FailFastProcessor(
            InferredAttack, check=attack_problem, name="feed-schema")
        job = StreamJob(
            broker, "rsdos-feed", "rsdos-feed-clean",
            [self.wrap_processor(validator)],
            name="feed-validate",
            retry_policy=RetryPolicy(max_retries=3),
            dead_letter="rsdos-feed.dlq",
            circuit_breaker=CircuitBreaker())
        job.drain()
        self.feed_broker = broker
        self.feed_job = job
        self.dead_letters = [r.value for r in broker.topic("rsdos-feed.dlq")]
        survivors: List[InferredAttack] = []
        for record in broker.topic("rsdos-feed-clean"):
            value = record.value
            if isinstance(value, FlaggedRecord):
                # Breaker-open passthrough: the record skipped validation,
                # so validate here before letting it rejoin the stream.
                value = value.value
                if attack_problem(value) is not None:
                    continue
            survivors.append(value)
        return survivors

    # -- the measurement store ------------------------------------------------

    def wrap_store_ingest(self, store) -> None:
        """Damage RTT rows *at ingest*: the crawl's rows reach the store
        with NaN or negative round-trip times, modelling corrupted
        telemetry on the wire. The store's ingest guard must reject
        (count, not aggregate) them — and the study must then flag
        itself degraded even when no aggregate, join record, or event
        was otherwise touched.

        A null ingest policy leaves the store unwrapped (zero overhead,
        byte-identical clean runs).
        """
        policy = self.config.ingest
        if policy.is_null:
            return
        rng = self.rngs.stream("ingest")
        real_add = store.add_fast

        def chaotic_add(nsset_id, ts, status, rtt_ms, dense):
            if self._fire("ingest", "corrupt", policy.corrupt_p, rng,
                          policy, f"nsset={nsset_id} ts={ts}"):
                rtt_ms = float("nan") if rng.random() < 0.5 else -1.0 - rtt_ms
            real_add(nsset_id, ts, status, rtt_ms, dense)

        store.add_fast = chaotic_add

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
        if self.feed_job is not None:
            job = self.feed_job
            lines.append(f"  feed-validate job: in={job.n_in} out={job.n_out} "
                         f"dead={job.n_dead} flagged={job.n_flagged} "
                         f"retries={job.retries_used}")
        return "\n".join(lines)
