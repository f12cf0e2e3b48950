"""Small stream processors: the Spark-Structured-Streaming analog.

A :class:`StreamJob` consumes one topic, applies a chain of processors,
and produces to another topic. Jobs are pumped explicitly (``step()``),
keeping the whole pipeline deterministic and single-threaded.

Every job runs *hardened* — the configuration a production pipeline
needs to survive faulted inputs and flaky workers:

- :class:`RetryPolicy`: per-record retries with exponential backoff and
  deterministic jitter;
- a **dead-letter topic** (``<source>.dlq``) receiving a
  :class:`DeadLetter` (value + structured failure metadata) for every
  record that fails for good, instead of the job crashing mid-stream;
- an optional :class:`CircuitBreaker` that opens after
  :data:`BREAKER_FAILURE_THRESHOLD` consecutive record failures and
  degrades the job to pass-through-with-flagging
  (:class:`FlaggedRecord`) until the breaker half-opens;
- ``checkpoint()`` / ``restore()``: consumer-offset checkpointing with
  sink/DLQ truncation on restore, so a job killed mid-stream resumes
  exactly-once (identical sink contents to an uninterrupted run).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Generic,
    Iterable,
    List,
    Optional,
    TypeVar,
)

from repro.streaming.topic import Broker, Consumer, Record, Topic
from repro.util.rng import derive_seed

T = TypeVar("T")
U = TypeVar("U")

#: Retry backoff: attempt *k* waits ``BACKOFF_BASE_MS * BACKOFF_MULTIPLIER
#: ** k`` virtual milliseconds, capped at ``BACKOFF_MAX_MS``, then
#: jittered by up to ``±BACKOFF_JITTER`` (a fraction).
BACKOFF_BASE_MS = 50.0
BACKOFF_MULTIPLIER = 2.0
BACKOFF_MAX_MS = 5_000.0
BACKOFF_JITTER = 0.1
#: Consecutive record failures that open a :class:`CircuitBreaker`.
BREAKER_FAILURE_THRESHOLD = 5
#: Flagged pass-throughs after which an open breaker half-opens.
BREAKER_RECOVERY_RECORDS = 20


class Processor(Generic[T, U]):
    """Transforms one record into zero or more output values."""

    def process(self, record: Record[T]) -> Iterable[U]:
        raise NotImplementedError


class FilterProcessor(Processor[T, T]):
    """Drops records failing a predicate."""

    def __init__(self, predicate: Callable[[T], bool]):
        self.predicate = predicate

    def process(self, record: Record[T]) -> Iterable[T]:
        if self.predicate(record.value):
            yield record.value


# ---------------------------------------------------------------------------
# Hardening primitives
# ---------------------------------------------------------------------------


class PoisonRecord(Exception):
    """Marks the current record as unprocessable.

    Raised by a processor (typically :class:`FailFastProcessor`) when a
    record can *never* succeed — malformed schema, unparseable payload.
    The job routes it straight to the dead-letter topic without burning
    retries.
    """

    def __init__(self, reason: str, value: Any = None):
        super().__init__(reason)
        self.reason = reason
        self.value = value


class FailFastProcessor(Processor[T, T]):
    """Schema gate: type-checks record values, rejecting mismatches.

    ``types`` is the accepted type (or tuple of types); ``check`` is an
    optional deeper validator returning a rejection reason (or ``None``
    when the value is fine). Mismatches raise :class:`PoisonRecord`, so
    they land on the job's dead-letter topic with a reason instead of
    crashing the job mid-stream.
    """

    def __init__(self, types, check: Optional[Callable[[T], Optional[str]]] = None,
                 name: str = "validate"):
        self.types = types if isinstance(types, tuple) else (types,)
        self.check = check
        self.name = name

    def process(self, record: Record[T]) -> Iterable[T]:
        value = record.value
        if not isinstance(value, self.types):
            expected = "/".join(t.__name__ for t in self.types)
            raise PoisonRecord(
                f"{self.name}: expected {expected}, "
                f"got {type(value).__name__}", value)
        if self.check is not None:
            reason = self.check(value)
            if reason is not None:
                raise PoisonRecord(f"{self.name}: {reason}", value)
        yield value


@dataclass(frozen=True)
class RetryPolicy:
    """Per-record retry with exponential backoff and bounded jitter.

    A failing record is retried up to ``max_retries`` times, after the
    backoff of :data:`BACKOFF_BASE_MS` and its companions. Jitter is
    *deterministic* — derived from (job, offset, attempt) — so a
    restored job recomputes identical delays without having to
    checkpoint RNG state.
    """

    max_retries: int = 3

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")

    def backoff_ms(self, job_name: str, offset: int, attempt: int) -> float:
        """The (jittered) delay before retry number ``attempt``."""
        raw = min(BACKOFF_BASE_MS * BACKOFF_MULTIPLIER ** attempt,
                  BACKOFF_MAX_MS)
        unit = derive_seed(0, job_name, str(offset), str(attempt)) / 2 ** 64
        return raw * (1.0 - BACKOFF_JITTER + 2.0 * BACKOFF_JITTER * unit)


@dataclass(frozen=True)
class DeadLetter:
    """A poison record plus structured failure metadata."""

    value: Any
    offset: int
    ts: int
    job: str
    error: str        # exception class name
    reason: str       # exception message / rejection reason
    attempts: int     # processing attempts made (1 = no retries)


@dataclass(frozen=True)
class FlaggedRecord:
    """A record passed through *unprocessed* while the circuit is open.

    Downstream consumers must treat the wrapped value as degraded: it
    skipped the job's processors (including validation)."""

    value: Any


class CircuitBreaker:
    """Opens after :data:`BREAKER_FAILURE_THRESHOLD` consecutive record
    failures; degrades to flagging.

    States: ``closed`` (normal processing), ``open`` (records bypass the
    processors and reach the sink as :class:`FlaggedRecord`), and
    ``half_open`` (one trial record is processed; success closes the
    breaker, failure re-opens it). The breaker half-opens after
    :data:`BREAKER_RECOVERY_RECORDS` pass-throughs — record-count based,
    matching the pipeline's virtual-time execution model.
    """

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"

    def __init__(self) -> None:
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.passthroughs = 0      # since the breaker last opened
        self.n_opens = 0

    def allow(self) -> bool:
        """Should the next record be processed (vs passed through)?"""
        if self.state == self.OPEN:
            if self.passthroughs >= BREAKER_RECOVERY_RECORDS:
                self.state = self.HALF_OPEN
                return True
            return False
        return True

    def on_passthrough(self) -> None:
        self.passthroughs += 1

    def record_success(self) -> None:
        self.consecutive_failures = 0
        if self.state == self.HALF_OPEN:
            self.state = self.CLOSED

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if self.state == self.HALF_OPEN or (
                self.state == self.CLOSED
                and self.consecutive_failures >= BREAKER_FAILURE_THRESHOLD):
            self.state = self.OPEN
            self.passthroughs = 0
            self.n_opens += 1

    # -- checkpoint support ---------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        return {"state": self.state,
                "consecutive_failures": self.consecutive_failures,
                "passthroughs": self.passthroughs,
                "n_opens": self.n_opens}

    def restore(self, state: Dict[str, Any]) -> None:
        self.state = state["state"]
        self.consecutive_failures = state["consecutive_failures"]
        self.passthroughs = state["passthroughs"]
        self.n_opens = state["n_opens"]


# ---------------------------------------------------------------------------
# The job
# ---------------------------------------------------------------------------


class StreamJob:
    """source topic -> processors -> sink topic, hardened.

    A record whose processors raise is retried under ``retry_policy``
    (none: no retries) and then dead-lettered to ``<source>.dlq``; a
    :class:`PoisonRecord` is dead-lettered at once. With a
    ``circuit_breaker``, a run of failures degrades the job to flagged
    pass-through (see the module docstring). ``step()`` never raises a
    processor's exception.
    """

    def __init__(self, broker: Broker, source: str, sink: str,
                 processors: List[Processor], name: Optional[str] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 circuit_breaker: Optional[CircuitBreaker] = None):
        self.broker = broker
        self.consumer: Consumer = broker.consumer(source, group=name or sink)
        self.sink: Topic = broker.topic(sink)
        self.processors = processors
        self.name = name or f"{source}->{sink}"
        self.retry_policy = retry_policy
        self.circuit_breaker = circuit_breaker
        self.dead_letter: Topic = broker.topic(f"{source}.dlq")
        self.n_in = 0
        self.n_out = 0
        self.n_dead = 0
        self.n_flagged = 0
        self.retries_used = 0
        #: virtual milliseconds spent in backoff (accounting only — the
        #: pipeline never wall-clock sleeps).
        self.backoff_ms_total = 0.0
        # ``repro.stream.*`` metrics, labelled by job, on the broker's
        # registry (the no-op null one unless metered), so every
        # increment below is an inert call when telemetry is off.
        self.metrics = broker.metrics
        job = self.name
        counter = self.metrics.counter
        self._c_in = counter("repro.stream.records_in", job=job)
        self._c_out = counter("repro.stream.records_out", job=job)
        self._c_dead = counter("repro.stream.dead_letters", job=job)
        self._c_retries = counter("repro.stream.retries", job=job)
        self._c_flagged = counter("repro.stream.flagged", job=job)
        self._c_opens = counter("repro.stream.breaker_opens", job=job)
        self._c_checkpoints = counter("repro.stream.checkpoints", job=job)
        self._c_restores = counter("repro.stream.restores", job=job)
        self._h_backoff = self.metrics.histogram(
            "repro.stream.backoff_ms", job=job)

    # -- processing -----------------------------------------------------------

    def _apply_chain(self, record: Record) -> List[Any]:
        """Run the full processor chain over one record."""
        outputs: List[Any] = [record.value]
        for processor in self.processors:
            next_outputs: List[Any] = []
            for value in outputs:
                next_outputs.extend(
                    processor.process(Record(record.offset, record.ts, value)))
            outputs = next_outputs
        return outputs

    def _dead_letter(self, record: Record, exc: Exception, attempts: int) -> None:
        self.n_dead += 1
        self._c_dead.inc()
        self.dead_letter.produce(record.ts, DeadLetter(
            value=record.value, offset=record.offset, ts=record.ts,
            job=self.name, error=type(exc).__name__,
            reason=str(exc), attempts=attempts))

    def _process(self, record: Record) -> None:
        breaker = self.circuit_breaker
        if breaker is not None and not breaker.allow():
            # Open circuit: degrade to pass-through-with-flagging so the
            # stream keeps moving while the fault clears.
            self.sink.produce(record.ts, FlaggedRecord(record.value))
            self.n_out += 1
            self.n_flagged += 1
            self._c_out.inc()
            self._c_flagged.inc()
            breaker.on_passthrough()
            return
        policy = self.retry_policy
        attempt = 0
        while True:
            try:
                outputs = self._apply_chain(record)
                break
            except PoisonRecord as exc:
                self._dead_letter(record, exc, attempt + 1)
                if breaker is not None:
                    # Poison is the record's fault, not the pipeline's:
                    # it does not count toward opening the breaker.
                    breaker.record_success()
                return
            except Exception as exc:
                if policy is None or attempt >= policy.max_retries:
                    self._dead_letter(record, exc, attempt + 1)
                    if breaker is not None:
                        opens_before = breaker.n_opens
                        breaker.record_failure()
                        if breaker.n_opens > opens_before:
                            self._c_opens.inc()
                    return
                self.retries_used += 1
                self._c_retries.inc()
                backoff = policy.backoff_ms(self.name, record.offset, attempt)
                self.backoff_ms_total += backoff
                self._h_backoff.observe(backoff)
                attempt += 1
        # Outputs reach the sink only after the whole chain succeeded,
        # so retries never emit partial results.
        for value in outputs:
            self.sink.produce(record.ts, value)
            self.n_out += 1
            self._c_out.inc()
        if breaker is not None:
            breaker.record_success()

    def step(self, max_records: Optional[int] = None,
             until_ts: Optional[int] = None) -> int:
        """Process newly-available records; returns how many were read.

        ``until_ts`` bounds the read in record time (exclusive), so a
        virtual-time worker can pump the job only up to its current
        tick — see :meth:`repro.streaming.topic.Consumer.poll`.
        """
        records = self.consumer.poll(max_records, until_ts=until_ts)
        self._c_in.inc(len(records))
        for record in records:
            self.n_in += 1
            self._process(record)
        return len(records)

    def drain(self) -> int:
        """Step until the source is exhausted."""
        total = 0
        while True:
            n = self.step()
            if n == 0:
                return total
            total += n

    # -- checkpoint / recovery ------------------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        """Snapshot the job's progress as a JSON-serializable dict.

        Captures the committed consumer offset, the sink/DLQ high-water
        marks, counters, and circuit-breaker state. Restoring from this
        dict (possibly in a fresh process over the same broker state)
        resumes the job exactly-once: see :meth:`restore`.
        """
        self._c_checkpoints.inc()
        state: Dict[str, Any] = {
            "version": 1,
            "job": self.name,
            "source": self.consumer.topic.name,
            "sink": self.sink.name,
            "offset": self.consumer.offset,
            "sink_end": self.sink.end_offset,
            "n_in": self.n_in,
            "n_out": self.n_out,
            "n_dead": self.n_dead,
            "n_flagged": self.n_flagged,
            "retries_used": self.retries_used,
            "backoff_ms_total": self.backoff_ms_total,
            "dlq_end": self.dead_letter.end_offset,
        }
        if self.circuit_breaker is not None:
            state["breaker"] = self.circuit_breaker.state_dict()
        return state

    def restore(self, state: Dict[str, Any]) -> None:
        """Resume from a :meth:`checkpoint` snapshot.

        Rolls the sink (and DLQ) back to the checkpointed high-water
        marks — discarding output from records processed after the
        checkpoint but never committed — then seeks the consumer to the
        committed offset. Replay from there is deterministic, so the
        recovered sink is identical to an uninterrupted run's: no lost
        records, no duplicates.
        """
        if state.get("version") != 1:
            raise ValueError(f"unsupported checkpoint version: {state.get('version')}")
        for key, actual in (("job", self.name),
                            ("source", self.consumer.topic.name),
                            ("sink", self.sink.name)):
            if state[key] != actual:
                raise ValueError(
                    f"checkpoint {key} mismatch: {state[key]!r} != {actual!r}")
        self._c_restores.inc()
        self.sink.truncate(state["sink_end"])
        self.dead_letter.truncate(state["dlq_end"])
        self.consumer.seek(state["offset"])
        self.n_in = state["n_in"]
        self.n_out = state["n_out"]
        self.n_dead = state["n_dead"]
        self.n_flagged = state["n_flagged"]
        self.retries_used = state["retries_used"]
        self.backoff_ms_total = state["backoff_ms_total"]
        if self.circuit_breaker is not None and "breaker" in state:
            self.circuit_breaker.restore(state["breaker"])
