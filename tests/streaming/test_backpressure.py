"""Bounded topics, backpressure policies, and broker group commits."""

import pytest

from repro.obs import MetricsRegistry
from repro.streaming import Broker, Consumer, Topic, TopicFull
from repro.streaming.topic import BACKPRESSURE_POLICIES


def _fill(topic, n, start_ts=0):
    for i in range(n):
        topic.produce(start_ts + i, f"v{i}")


class TestBoundedTopic:
    def test_unbounded_by_default(self):
        topic = Topic("t")
        _fill(topic, 1000)
        assert len(topic) == 1000

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Topic("t", capacity=0)
        with pytest.raises(ValueError):
            Topic("t", capacity=5, backpressure="nope")

    def test_policies_tuple(self):
        assert BACKPRESSURE_POLICIES == ("block", "shed_oldest")

    def test_shed_oldest_evicts_head_and_counts(self):
        topic = Topic("t", capacity=3, backpressure="shed_oldest")
        _fill(topic, 5)
        assert len(topic) == 3
        assert topic.n_shed == 2
        assert topic.start_offset == 2
        assert topic.end_offset == 5
        # remaining records keep their absolute offsets
        assert [r.offset for r in topic.read(0)] == [2, 3, 4]

    def test_shed_gap_attributed_to_consumer(self):
        topic = Topic("t", capacity=3, backpressure="shed_oldest")
        consumer = Consumer(topic)
        _fill(topic, 5)
        records = consumer.poll()
        assert consumer.missed == 2
        assert [r.value for r in records] == ["v2", "v3", "v4"]

    def test_block_without_hook_raises(self):
        topic = Topic("t", capacity=2, backpressure="block")
        _fill(topic, 2)
        with pytest.raises(TopicFull) as err:
            topic.produce(2, "overflow")
        assert err.value.topic == "t"
        assert err.value.capacity == 2
        # nothing was appended
        assert len(topic) == 2

    def test_block_drain_hook_frees_space(self):
        topic = Topic("t", capacity=2, backpressure="block")
        consumer = Consumer(topic)

        def drain():
            records = consumer.poll(max_records=1)
            if not records:
                return False
            topic.trim(consumer.offset)
            return True

        topic.on_full(drain)
        _fill(topic, 10)
        # every record was either retained or consumed-then-trimmed
        assert consumer.missed == 0
        assert topic.n_shed == 0
        assert topic.end_offset == 10

    def test_block_hook_without_progress_raises(self):
        topic = Topic("t", capacity=2, backpressure="block")
        topic.on_full(lambda: False)
        _fill(topic, 2)
        with pytest.raises(TopicFull):
            topic.produce(2, "overflow")

    def test_backpressure_metrics(self):
        registry = MetricsRegistry()
        topic = Topic("t", metrics=registry, capacity=2,
                      backpressure="shed_oldest")
        _fill(topic, 5)
        shed = registry.counter("repro.stream.topic.shed", topic="t")
        assert shed.value == 3


class TestTrim:
    def test_trim_releases_head(self):
        topic = Topic("t")
        _fill(topic, 5)
        assert topic.trim(3) == 3
        assert topic.start_offset == 3
        assert len(topic) == 2
        assert topic.n_trimmed == 3
        # offsets unchanged for the survivors
        assert [r.offset for r in topic.read(0)] == [3, 4]

    def test_trim_is_idempotent_at_same_offset(self):
        topic = Topic("t")
        _fill(topic, 5)
        topic.trim(3)
        assert topic.trim(3) == 0

    def test_trim_bounds(self):
        topic = Topic("t")
        _fill(topic, 5)
        topic.trim(2)
        with pytest.raises(ValueError):
            topic.trim(1)  # below the current base
        with pytest.raises(ValueError):
            topic.trim(6)  # past the end

    def test_read_clamps_below_start(self):
        topic = Topic("t")
        _fill(topic, 5)
        topic.trim(3)
        assert [r.offset for r in topic.read(0)] == [3, 4]

    def test_trim_frees_capacity(self):
        topic = Topic("t", capacity=3, backpressure="block")
        _fill(topic, 3)
        topic.trim(2)
        topic.produce(3, "fits")
        assert topic.end_offset == 4


class TestBrokerCommits:
    def test_commit_and_committed(self):
        broker = Broker()
        topic = broker.topic("t")
        _fill(topic, 5)
        assert broker.committed("t", "g") is None
        broker.commit("t", "g", 3)
        assert broker.committed("t", "g") == 3

    def test_consumer_commit_via_broker(self):
        broker = Broker()
        _fill(broker.topic("t"), 5)
        consumer = broker.consumer("t", group="g")
        consumer.poll(max_records=2)
        assert consumer.commit() == 2
        assert broker.committed("t", "g") == 2

    def test_commit_requires_broker(self):
        consumer = Consumer(Topic("t"))
        with pytest.raises(RuntimeError):
            consumer.commit()

    def test_from_committed_resumes_without_the_old_consumer(self):
        broker = Broker()
        _fill(broker.topic("t"), 5)
        first = broker.consumer("t", group="g")
        first.poll(max_records=3)
        first.commit()
        del first  # the consumer object does not survive the "kill"
        fresh = broker.consumer("t", group="g", from_committed=True)
        assert [r.value for r in fresh.poll()] == ["v3", "v4"]

    def test_from_committed_falls_back_to_beginning(self):
        broker = Broker()
        _fill(broker.topic("t"), 3)
        fresh = broker.consumer("t", group="never-committed",
                                from_committed=True)
        assert len(fresh.poll()) == 3

    def test_from_committed_clamps_to_trimmed_start(self):
        broker = Broker()
        topic = broker.topic("t")
        _fill(topic, 5)
        broker.commit("t", "g", 1)
        topic.trim(3)
        fresh = broker.consumer("t", group="g", from_committed=True)
        assert fresh.offset == 3

    def test_commit_bounds(self):
        broker = Broker()
        _fill(broker.topic("t"), 3)
        with pytest.raises(ValueError):
            broker.commit("t", "g", 4)

    def test_groups_are_independent(self):
        broker = Broker()
        _fill(broker.topic("t"), 5)
        broker.commit("t", "a", 2)
        broker.commit("t", "b", 4)
        assert broker.committed("t", "a") == 2
        assert broker.committed("t", "b") == 4


class TestBrokerBoundedTopics:
    def test_capacity_applies_at_creation(self):
        broker = Broker()
        topic = broker.topic("t", capacity=4, backpressure="shed_oldest")
        assert topic.capacity == 4
        assert topic.backpressure == "shed_oldest"

    def test_mismatched_rerequest_is_an_error(self):
        broker = Broker()
        broker.topic("t", capacity=4)
        with pytest.raises(ValueError):
            broker.topic("t", capacity=8)
        with pytest.raises(ValueError):
            broker.topic("t", backpressure="shed_oldest")

    def test_omitted_params_return_existing(self):
        broker = Broker()
        bounded = broker.topic("t", capacity=4, backpressure="shed_oldest")
        assert broker.topic("t") is bounded


class TestPollUntilTs:
    def test_until_ts_is_exclusive(self):
        topic = Topic("t")
        for ts in (0, 100, 200, 300):
            topic.produce(ts, ts)
        consumer = Consumer(topic)
        assert [r.ts for r in consumer.poll(until_ts=200)] == [0, 100]
        # the bound does not consume the stopping record
        assert [r.ts for r in consumer.poll(until_ts=1000)] == [200, 300]

    def test_until_ts_with_max_records(self):
        topic = Topic("t")
        for ts in (0, 1, 2, 3):
            topic.produce(ts, ts)
        consumer = Consumer(topic)
        assert len(consumer.poll(max_records=3, until_ts=2)) == 2
