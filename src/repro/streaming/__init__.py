"""In-process streaming substrate (Kafka/Spark-Structured-Streaming analog).

The paper's reactive measurement platform is built on Kafka topics and
Spark Structured Streaming jobs. This package provides the same
primitives in-process: ordered topics with offset-tracking consumers
and small stream processors (filter, schema gate) run by stream jobs —
enough to express the reactive pipeline faithfully.

Every job runs *hardened* for faulted inputs: per-record retries with
backoff and jitter, a dead-letter topic for poison records, an optional
circuit breaker degrading to pass-through-with-flagging, and
checkpoint/restore for exactly-once crash recovery (see
``docs/robustness.md``).

Topics can be *bounded* (``capacity=`` plus a producer-side
backpressure policy — ``block``, ``shed_oldest``, or ``reject``) and
the broker keeps per-group committed offsets, so a consumer's position
survives a worker kill (see ``docs/robustness.md`` §overload).
"""

from repro.streaming.topic import (
    BACKPRESSURE_POLICIES,
    Broker,
    Consumer,
    Record,
    Topic,
    TopicFull,
)
from repro.streaming.processors import (
    CircuitBreaker,
    DeadLetter,
    FailFastProcessor,
    FilterProcessor,
    FlaggedRecord,
    PoisonRecord,
    Processor,
    RetryPolicy,
    StreamJob,
)

__all__ = [
    "BACKPRESSURE_POLICIES",
    "Broker",
    "Consumer",
    "Record",
    "Topic",
    "TopicFull",
    "Processor",
    "FilterProcessor",
    "FailFastProcessor",
    "PoisonRecord",
    "RetryPolicy",
    "DeadLetter",
    "FlaggedRecord",
    "CircuitBreaker",
    "StreamJob",
]
