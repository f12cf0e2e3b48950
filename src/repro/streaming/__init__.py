"""In-process streaming substrate (the Kafka analog).

The paper's reactive measurement platform is built on Kafka topics and
Spark Structured Streaming jobs. This package provides the Kafka half
in-process: ordered topics with offset-tracking consumers and a broker
that keeps per-group committed offsets, so a consumer's position
survives a worker kill. The jobs are plain loops where the records are
read: the reactive worker validates its triggers as it polls them
(:mod:`repro.reactive.service`), and the chaos feed check is
:meth:`repro.chaos.FaultInjector.harden_feed`.

Topics can be *bounded* (``capacity=`` plus a producer-side
backpressure policy, ``block`` or ``shed_oldest``); see
``docs/robustness.md`` §overload.
"""

from repro.streaming.topic import Broker, Consumer, Record, Topic, TopicFull

__all__ = [
    "Broker",
    "Consumer",
    "Record",
    "Topic",
    "TopicFull",
]
