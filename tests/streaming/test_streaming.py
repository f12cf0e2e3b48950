"""Tests for topics, consumers, and stream jobs."""

import pytest

from repro.streaming.processors import FilterProcessor, Processor, StreamJob
from repro.streaming.topic import Broker, Consumer, Topic


class Times(Processor):
    """A one-to-one test processor: multiplies each value."""

    def __init__(self, factor):
        self.factor = factor

    def process(self, record):
        yield record.value * self.factor


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


class TestStreamJob:
    def test_filter(self):
        broker = Broker()
        for i in range(5):
            broker.topic("in").produce(i, i)
        job = StreamJob(broker, "in", "out",
                        [FilterProcessor(lambda x: x % 2 == 0)])
        job.drain()
        assert [r.value for r in broker.topic("out")] == [0, 2, 4]

    def test_chained_processors(self):
        broker = Broker()
        for i in range(4):
            broker.topic("in").produce(i, i)
        job = StreamJob(broker, "in", "out", [
            FilterProcessor(lambda x: x > 0),
            Times(10),
        ])
        job.drain()
        assert [r.value for r in broker.topic("out")] == [10, 20, 30]

    def test_incremental_step(self):
        broker = Broker()
        job = StreamJob(broker, "in", "out", [Times(1)])
        broker.topic("in").produce(1, "a")
        assert job.step() == 1
        assert job.step() == 0
        broker.topic("in").produce(2, "b")
        assert job.step() == 1
        assert job.n_in == 2 and job.n_out == 2

    def test_timestamps_preserved(self):
        broker = Broker()
        broker.topic("in").produce(123, "x")
        StreamJob(broker, "in", "out", [Times(1)]).drain()
        assert broker.topic("out").read(0)[0].ts == 123
