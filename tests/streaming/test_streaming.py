"""Tests for topics, consumers, and the broker."""

import pytest

from repro.streaming.topic import Broker, Consumer, Topic


class TestTopic:
    def test_produce_and_read(self):
        topic = Topic("t")
        topic.produce(100, "a")
        topic.produce(200, "b")
        records = topic.read(0)
        assert [(r.offset, r.ts, r.value) for r in records] == \
            [(0, 100, "a"), (1, 200, "b")]

    def test_rejects_out_of_order_timestamps(self):
        topic = Topic("t")
        topic.produce(100, "a")
        with pytest.raises(ValueError):
            topic.produce(50, "b")

    def test_equal_timestamps_allowed(self):
        topic = Topic("t")
        topic.produce(100, "a")
        topic.produce(100, "b")
        assert len(topic) == 2

    def test_read_with_limit(self):
        topic = Topic("t")
        for i in range(5):
            topic.produce(i, i)
        assert len(topic.read(1, max_records=2)) == 2

    def test_read_rejects_negative_offset(self):
        with pytest.raises(ValueError):
            Topic("t").read(-1)


class TestConsumer:
    def test_poll_advances(self):
        topic = Topic("t")
        topic.produce(1, "a")
        consumer = Consumer(topic)
        assert [r.value for r in consumer.poll()] == ["a"]
        assert consumer.poll() == []
        topic.produce(2, "b")
        assert [r.value for r in consumer.poll()] == ["b"]

    def test_lag(self):
        topic = Topic("t")
        topic.produce(1, "a")
        topic.produce(2, "b")
        consumer = Consumer(topic)
        assert consumer.lag == 2
        consumer.poll(max_records=1)
        assert consumer.lag == 1

    def test_seek(self):
        topic = Topic("t")
        topic.produce(1, "a")
        consumer = Consumer(topic)
        consumer.poll()
        consumer.seek(0)
        assert [r.value for r in consumer.poll()] == ["a"]

    def test_seek_bounds(self):
        topic = Topic("t")
        with pytest.raises(ValueError):
            Consumer(topic).seek(5)


class TestBroker:
    def test_topic_get_or_create(self):
        broker = Broker()
        assert broker.topic("x") is broker.topic("x")
        assert "x" in broker


class TestTopicTruncate:
    def test_truncate_drops_tail(self):
        topic = Topic("t")
        for i, value in enumerate("abcd"):
            topic.produce(i, value)
        assert topic.truncate(2) == 2
        assert [r.value for r in topic] == ["a", "b"]
        assert topic.end_offset == 2

    def test_truncate_validates_range(self):
        topic = Topic("t")
        topic.produce(0, "x")
        with pytest.raises(ValueError):
            topic.truncate(5)
        with pytest.raises(ValueError):
            topic.truncate(-1)

    def test_produce_append_after_truncate(self):
        topic = Topic("t")
        for i in range(3):
            topic.produce(i, i)
        topic.truncate(1)
        record = topic.produce(9, "new")
        assert record.offset == 1
