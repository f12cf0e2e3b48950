"""Topics and consumers: ordered, replayable, offset-tracked streams.

Pass a :class:`repro.obs.MetricsRegistry` to a :class:`Broker` (or a
single :class:`Topic`) to count produced/truncated records per topic
under ``repro.stream.topic.*``; the default is the shared no-op
registry, so unmetered brokers pay one inert call per produce.

Bounded topics and backpressure
-------------------------------

A topic constructed with ``capacity=N`` retains at most ``N`` records.
What happens when a producer would overflow it is the topic's
*backpressure policy*:

- ``"block"`` — the producer is held back: the topic invokes its
  drain hook (:meth:`Topic.on_full`, typically wired to pump the
  consuming worker) until space frees; if no hook is registered or the
  hook stops making progress, :class:`TopicFull` is raised. This is
  the lossless policy: nothing is ever dropped, but a producer whose
  consumer stops draining sees the error instead of queueing
  unboundedly.
- ``"shed_oldest"`` — the oldest retained record is evicted to make
  room (Kafka-retention flavour). Evictions are counted under
  ``repro.stream.topic.shed`` and consumers that were positioned
  before the new start offset account the gap in
  :attr:`Consumer.missed` — sheds are *never* silent.

Retained records are released from the head with :meth:`Topic.trim`
(the analog of Kafka ``DeleteRecords``): a consuming worker trims up
to its committed offset after checkpointing, which is what frees
capacity under the ``block`` policy. Offsets are absolute and stable:
shedding or trimming advances :attr:`Topic.start_offset` but never
renumbers the remaining records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Generic,
    Iterator,
    List,
    Optional,
    Tuple,
    TypeVar,
)

from repro.obs.registry import NULL_REGISTRY, MetricsRegistry

T = TypeVar("T")

#: The backpressure policies a bounded topic accepts.
BACKPRESSURE_POLICIES = ("block", "shed_oldest")

#: How many times ``produce`` re-invokes the drain hook before giving
#: up: each invocation must free at least one slot, so this only bounds
#: pathological hooks, not legitimate backpressure.
_MAX_DRAIN_ATTEMPTS = 1_000_000


class TopicFull(Exception):
    """Producing to a full ``block`` topic whose drain hook is missing
    or made no progress."""

    def __init__(self, topic: str, capacity: int):
        super().__init__(f"topic {topic!r} full ({capacity} records) "
                         f"and nothing drains it")
        self.topic = topic
        self.capacity = capacity


@dataclass(frozen=True)
class Record(Generic[T]):
    """A timestamped record on a topic."""

    offset: int
    ts: int
    value: T


class Topic(Generic[T]):
    """An append-only ordered log of timestamped records.

    Unbounded by default; pass ``capacity`` (and a ``backpressure``
    policy) to bound it — see the module docstring.
    """

    def __init__(self, name: str, metrics: Optional[MetricsRegistry] = None,
                 capacity: Optional[int] = None,
                 backpressure: str = "block"):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1")
        if backpressure not in BACKPRESSURE_POLICIES:
            raise ValueError(f"unknown backpressure policy: {backpressure!r}")
        self.name = name
        self.capacity = capacity
        self.backpressure = backpressure
        self._log: List[Record[T]] = []
        #: absolute offset of ``_log[0]`` (advanced by shed/trim).
        self._base = 0
        #: records shed/trimmed from the head so far.
        self.n_shed = 0
        self.n_trimmed = 0
        self._drain_hook: Optional[Callable[[], bool]] = None
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._produced = self.metrics.counter(
            "repro.stream.topic.produced", topic=name)
        if capacity is not None:
            self._c_shed = self.metrics.counter(
                "repro.stream.topic.shed", topic=name)
            self._c_blocked = self.metrics.counter(
                "repro.stream.topic.blocked", topic=name)

    # -- bounded-capacity plumbing -------------------------------------------

    def on_full(self, hook: Optional[Callable[[], bool]]) -> None:
        """Register the ``block`` policy's drain hook.

        The hook is invoked when a produce finds the topic full; it
        should make the consuming side drain (e.g. pump a worker one
        tick) and return ``True`` if it made progress. ``produce``
        keeps invoking it until space frees or it reports no progress.
        """
        self._drain_hook = hook

    def _make_room(self) -> None:
        """Apply the backpressure policy until one slot is free."""
        assert self.capacity is not None
        if self.backpressure == "shed_oldest":
            while len(self._log) >= self.capacity:
                del self._log[0]
                self._base += 1
                self.n_shed += 1
                self._c_shed.inc()
            return
        # block: hand control to the consuming side until space frees.
        for _ in range(_MAX_DRAIN_ATTEMPTS):
            if len(self._log) < self.capacity:
                return
            if self._drain_hook is None:
                break
            self._c_blocked.inc()
            if not self._drain_hook():
                break
        if len(self._log) >= self.capacity:
            raise TopicFull(self.name, self.capacity)

    def produce(self, ts: int, value: T) -> Record[T]:
        """Append a record; timestamps must be non-decreasing."""
        if self._log and ts < self._log[-1].ts:
            raise ValueError(
                f"out-of-order produce on {self.name}: {ts} < {self._log[-1].ts}")
        if self.capacity is not None and len(self._log) >= self.capacity:
            self._make_room()
        record = Record(offset=self._base + len(self._log), ts=int(ts),
                        value=value)
        self._log.append(record)
        self._produced.inc()
        return record

    def read(self, offset: int, max_records: Optional[int] = None
             ) -> List[Record[T]]:
        """Records from ``offset`` on (clamped to :attr:`start_offset`:
        head records shed or trimmed away are simply gone)."""
        if offset < 0:
            raise ValueError("offset must be non-negative")
        start = max(offset, self._base) - self._base
        end = len(self._log) if max_records is None else start + max_records
        return self._log[start:end]

    @property
    def start_offset(self) -> int:
        """Absolute offset of the oldest retained record."""
        return self._base

    @property
    def end_offset(self) -> int:
        return self._base + len(self._log)

    def trim(self, new_start_offset: int) -> int:
        """Release records *before* ``new_start_offset`` from the head;
        returns how many were released.

        The retention analog of Kafka ``DeleteRecords``: a consuming
        worker trims up to its committed offset after checkpointing —
        recovery never replays below a committed offset, so trimmed
        records can never be needed again. Trimming is what frees
        capacity on a bounded ``block`` topic.
        """
        if not self._base <= new_start_offset <= self.end_offset:
            raise ValueError(
                f"trim offset {new_start_offset} outside "
                f"[{self._base}, {self.end_offset}]")
        dropped = new_start_offset - self._base
        if dropped:
            del self._log[:dropped]
            self._base = new_start_offset
            self.n_trimmed += dropped
            self.metrics.counter("repro.stream.topic.trimmed",
                                 topic=self.name).inc(dropped)
        return dropped

    def truncate(self, end_offset: int) -> int:
        """Discard records at/after ``end_offset``; returns how many.

        Crash-recovery only (the analog of Kafka log truncation when a
        restarted worker rolls back to its last checkpoint): a restored
        reactive worker drops the results it produced after its
        checkpoint before replaying, so recovery is exactly-once rather
        than at-least-once. Consumers of other groups positioned past
        ``end_offset`` must ``seek``.
        """
        if not self._base <= end_offset <= self.end_offset:
            raise ValueError(f"end_offset {end_offset} out of range")
        dropped = self.end_offset - end_offset
        del self._log[end_offset - self._base:]
        if dropped:
            self.metrics.counter("repro.stream.topic.truncated",
                                 topic=self.name).inc(dropped)
        return dropped

    def __len__(self) -> int:
        """Retained records (shed/trimmed head records excluded)."""
        return len(self._log)

    def __iter__(self) -> Iterator[Record[T]]:
        return iter(self._log)


class Consumer(Generic[T]):
    """An offset-tracking reader of one topic.

    A consumer created by a :class:`Broker` can :meth:`commit` its
    offset durably to the broker under its group name, so recovery does
    not depend on the consumer *object* surviving — a fresh consumer in
    a restarted worker resumes from ``broker.committed(topic, group)``.
    """

    def __init__(self, topic: Topic[T], group: str = "default",
                 broker: Optional["Broker"] = None):
        self.topic = topic
        self.group = group
        self.broker = broker
        self.offset = topic.start_offset
        #: records this consumer could never see because a bounded
        #: ``shed_oldest`` topic evicted them first. Sheds are counted
        #: at the topic; this attributes the gap to the reader.
        self.missed = 0

    def _skip_shed(self) -> None:
        start = self.topic.start_offset
        if self.offset < start:
            self.missed += start - self.offset
            self.offset = start

    def poll(self, max_records: Optional[int] = None,
             until_ts: Optional[int] = None) -> List[Record[T]]:
        """New records since the last poll; advances the offset.

        ``until_ts`` stops at the first record timestamped at/after it
        (exclusive bound) without consuming it — how a virtual-time
        worker reads only the triggers visible at its current tick.
        """
        self._skip_shed()
        records = self.topic.read(self.offset, max_records)
        if until_ts is not None:
            kept = 0
            for record in records:
                if record.ts >= until_ts:
                    break
                kept += 1
            records = records[:kept]
        self.offset += len(records)
        return records

    @property
    def lag(self) -> int:
        return self.topic.end_offset - self.offset

    def seek(self, offset: int) -> None:
        if not self.topic.start_offset <= offset <= self.topic.end_offset:
            raise ValueError(f"offset {offset} out of range")
        self.offset = offset

    def commit(self) -> int:
        """Durably record the current offset with the broker (under
        this consumer's group); returns the committed offset."""
        if self.broker is None:
            raise RuntimeError(
                "consumer has no broker to commit to (create it via "
                "Broker.consumer)")
        self.broker.commit(self.topic.name, self.group, self.offset)
        return self.offset


class Broker:
    """A registry of named topics plus per-group committed offsets."""

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self._topics: Dict[str, Topic[Any]] = {}
        #: (topic, group) -> durably committed consumer offset.
        self._committed: Dict[Tuple[str, str], int] = {}
        #: handed to every topic this broker creates, and picked up by
        #: the reactive worker built on it.
        self.metrics = metrics if metrics is not None else NULL_REGISTRY

    def topic(self, name: str, capacity: Optional[int] = None,
              backpressure: Optional[str] = None) -> Topic[Any]:
        """Get or create a topic.

        ``capacity``/``backpressure`` apply at creation; re-requesting
        an existing topic with a *different* bound is an error (bounds
        are part of the topic's contract), while omitting them always
        returns the existing topic unchanged.
        """
        topic = self._topics.get(name)
        if topic is None:
            topic = Topic(name, metrics=self.metrics, capacity=capacity,
                          backpressure=backpressure or "block")
            self._topics[name] = topic
            return topic
        if capacity is not None and capacity != topic.capacity:
            raise ValueError(
                f"topic {name!r} exists with capacity={topic.capacity}, "
                f"requested {capacity}")
        if backpressure is not None and backpressure != topic.backpressure:
            raise ValueError(
                f"topic {name!r} exists with backpressure="
                f"{topic.backpressure!r}, requested {backpressure!r}")
        return topic

    def consumer(self, name: str, group: str = "default",
                 from_committed: bool = False) -> Consumer[Any]:
        """A consumer of ``name``, from the topic's oldest retained
        record; with ``from_committed=True`` it resumes from the group's
        last committed offset instead, when the group ever committed."""
        consumer = Consumer(self.topic(name), group, broker=self)
        if from_committed:
            offset = self.committed(name, group)
            if offset is not None:
                consumer.seek(max(offset, consumer.topic.start_offset))
        return consumer

    def commit(self, topic: str, group: str, offset: int) -> None:
        """Durably record ``group``'s position on ``topic``."""
        t = self.topic(topic)
        if not 0 <= offset <= t.end_offset:
            raise ValueError(f"offset {offset} out of range for {topic!r}")
        self._committed[(topic, group)] = offset

    def committed(self, topic: str, group: str) -> Optional[int]:
        """The group's last committed offset (``None`` if never)."""
        return self._committed.get((topic, group))

    def __contains__(self, name: str) -> bool:
        return name in self._topics
