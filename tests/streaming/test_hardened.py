"""Tests for the hardened StreamJob: retries, DLQ, breaker, checkpoints."""

import pytest

from repro.streaming import (
    Broker,
    CircuitBreaker,
    DeadLetter,
    FailFastProcessor,
    FlaggedRecord,
    PoisonRecord,
    Record,
    RetryPolicy,
    StreamJob,
)
from repro.streaming.processors import (
    BACKOFF_MAX_MS,
    BREAKER_FAILURE_THRESHOLD,
    BREAKER_RECOVERY_RECORDS,
    Processor,
)


class FlakyProcessor(Processor):
    """Fails each value a scripted number of times before succeeding."""

    def __init__(self, failures_by_value):
        self.failures_by_value = dict(failures_by_value)
        self.attempts = {}

    def process(self, record: Record):
        value = record.value
        seen = self.attempts.get(value, 0)
        self.attempts[value] = seen + 1
        if seen < self.failures_by_value.get(value, 0):
            raise RuntimeError(f"transient failure on {value!r}")
        yield value


class Upper(Processor):
    """A one-to-one test processor: upper-cases each value."""

    def process(self, record: Record):
        yield record.value.upper()


def feed(broker, values, topic="in"):
    t = broker.topic(topic)
    for i, value in enumerate(values):
        t.produce(i, value)


class TestRetries:
    def test_transient_failures_retried_to_success(self):
        broker = Broker()
        feed(broker, ["a", "b", "c"])
        flaky = FlakyProcessor({"b": 2})
        job = StreamJob(broker, "in", "out", [flaky], name="j",
                        retry_policy=RetryPolicy(max_retries=3))
        job.drain()
        assert [r.value for r in broker.topic("out")] == ["a", "b", "c"]
        assert job.retries_used == 2
        assert job.n_dead == 0
        assert job.backoff_ms_total > 0

    def test_exhausted_retries_dead_letter(self):
        broker = Broker()
        feed(broker, ["a", "bad", "c"])
        flaky = FlakyProcessor({"bad": 99})
        job = StreamJob(broker, "in", "out", [flaky], name="j",
                        retry_policy=RetryPolicy(max_retries=2))
        job.drain()
        assert [r.value for r in broker.topic("out")] == ["a", "c"]
        letters = [r.value for r in broker.topic("in.dlq")]
        assert len(letters) == 1
        letter = letters[0]
        assert isinstance(letter, DeadLetter)
        assert letter.value == "bad"
        assert letter.job == "j"
        assert letter.error == "RuntimeError"
        assert "bad" in letter.reason
        assert letter.attempts == 3  # initial try + 2 retries

    def test_no_partial_emission_on_retry(self):
        # A chain that emits from its first stage but fails in its
        # second must not leak first-stage outputs for failed attempts.
        broker = Broker()
        feed(broker, ["a"])
        flaky = FlakyProcessor({"A": 2})
        job = StreamJob(broker, "in", "out",
                        [Upper(), flaky], name="j",
                        retry_policy=RetryPolicy(max_retries=3))
        job.drain()
        assert [r.value for r in broker.topic("out")] == ["A"]

    def test_backoff_deterministic_and_capped(self):
        policy = RetryPolicy()
        a = policy.backoff_ms("job", 7, 1)
        b = policy.backoff_ms("job", 7, 1)
        assert a == b
        assert policy.backoff_ms("job", 7, 0) != policy.backoff_ms("job", 8, 0)
        # attempt 0 waits 50 ms, jitter within ±10%.
        assert 45.0 <= policy.backoff_ms("job", 0, 0) <= 55.0
        # attempt 7 raw = 50 * 128 -> capped, jitter within ±10%.
        assert 0.9 * BACKOFF_MAX_MS <= policy.backoff_ms("job", 0, 7) \
            <= 1.1 * BACKOFF_MAX_MS


class TestPoisonRouting:
    def test_type_mismatch_goes_to_dlq_without_retries(self):
        broker = Broker()
        feed(broker, [1, "two", 3])
        job = StreamJob(broker, "in", "out",
                        [FailFastProcessor(int, name="ints")], name="j",
                        retry_policy=RetryPolicy(max_retries=5))
        job.drain()
        assert [r.value for r in broker.topic("out")] == [1, 3]
        (letter,) = [r.value for r in broker.topic("in.dlq")]
        assert letter.error == "PoisonRecord"
        assert "expected int, got str" in letter.reason
        assert letter.attempts == 1
        assert job.retries_used == 0

    def test_check_function_rejection_reason_preserved(self):
        broker = Broker()
        feed(broker, [5, -1])
        gate = FailFastProcessor(
            int, check=lambda v: "negative" if v < 0 else None, name="pos")
        job = StreamJob(broker, "in", "out", [gate], name="j")
        job.drain()
        (letter,) = [r.value for r in broker.topic("in.dlq")]
        assert letter.reason == "pos: negative"

    def test_poison_does_not_trip_breaker(self):
        broker = Broker()
        n = 2 * BREAKER_FAILURE_THRESHOLD
        feed(broker, ["s"] * n)
        breaker = CircuitBreaker()
        job = StreamJob(broker, "in", "out",
                        [FailFastProcessor(int)], name="j",
                        circuit_breaker=breaker)
        job.drain()
        assert breaker.state == CircuitBreaker.CLOSED
        assert job.n_dead == n
        assert job.n_flagged == 0


class TestCircuitBreaker:
    THRESHOLD = BREAKER_FAILURE_THRESHOLD
    RECOVERY = BREAKER_RECOVERY_RECORDS

    def _failing_job(self, broker, n_records, fail=lambda v: True):
        feed(broker, list(range(n_records)))

        class Failer(Processor):
            def process(self, record):
                if fail(record.value):
                    raise RuntimeError("down")
                yield record.value

        breaker = CircuitBreaker()
        job = StreamJob(broker, "in", "out", [Failer()], name="j",
                        circuit_breaker=breaker)
        return job, breaker

    def test_opens_after_threshold_and_flags(self):
        broker = Broker()
        n = self.THRESHOLD + self.RECOVERY
        job, breaker = self._failing_job(broker, n)
        job.drain()
        # THRESHOLD failures open the breaker; the next RECOVERY records
        # pass through before any half-open trial.
        assert breaker.state == CircuitBreaker.OPEN
        assert job.n_dead == self.THRESHOLD
        assert job.n_flagged == self.RECOVERY
        flagged = [r.value for r in broker.topic("out")]
        assert all(isinstance(v, FlaggedRecord) for v in flagged)
        assert [v.value for v in flagged] == list(range(self.THRESHOLD, n))

    def test_half_open_recovery_closes_breaker(self):
        broker = Broker()
        # Fail the first THRESHOLD records, then recover.
        n = self.THRESHOLD + self.RECOVERY + 5
        job, breaker = self._failing_job(
            broker, n, fail=lambda v: v < self.THRESHOLD)
        job.drain()
        # the failures open it; RECOVERY flagged pass-throughs follow;
        # the next record is the half-open trial, succeeds, and closes
        # the breaker; the rest process normally.
        assert breaker.state == CircuitBreaker.CLOSED
        assert job.n_flagged == self.RECOVERY
        processed = [r.value for r in broker.topic("out")
                     if not isinstance(r.value, FlaggedRecord)]
        assert processed == list(range(self.THRESHOLD + self.RECOVERY, n))

    def test_half_open_failure_reopens(self):
        broker = Broker()
        job, breaker = self._failing_job(
            broker, self.THRESHOLD + self.RECOVERY + 5)
        job.drain()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.n_opens >= 2  # re-opened after failed trial


class TestTopicTruncate:
    def test_truncate_drops_tail(self):
        broker = Broker()
        feed(broker, ["a", "b", "c", "d"])
        topic = broker.topic("in")
        assert topic.truncate(2) == 2
        assert [r.value for r in topic] == ["a", "b"]
        assert topic.end_offset == 2

    def test_truncate_validates_range(self):
        topic = Broker().topic("t")
        topic.produce(0, "x")
        with pytest.raises(ValueError):
            topic.truncate(5)
        with pytest.raises(ValueError):
            topic.truncate(-1)

    def test_produce_append_after_truncate(self):
        topic = Broker().topic("t")
        for i in range(3):
            topic.produce(i, i)
        topic.truncate(1)
        record = topic.produce(9, "new")
        assert record.offset == 1


class TestCheckpointRestore:
    def _make_job(self, broker, name="j"):
        flaky = FlakyProcessor({"bad": 99, "flaky": 1})
        return StreamJob(
            broker, "in", "out", [flaky], name=name,
            retry_policy=RetryPolicy(max_retries=2),
            circuit_breaker=CircuitBreaker())

    VALUES = ["a", "flaky", "bad", "b", "c", "d", "bad", "e", "f"]

    def test_restore_matches_uninterrupted_run(self):
        # Reference: one uninterrupted run.
        ref = Broker()
        feed(ref, self.VALUES)
        self._make_job(ref).drain()
        expected_sink = [(r.ts, r.value) for r in ref.topic("out")]
        expected_dlq = [(r.value.value, r.value.error)
                        for r in ref.topic("in.dlq")]

        # Crash run: process 4 records, checkpoint, process 3 more that
        # are never committed, then "crash" and restore a fresh job.
        broker = Broker()
        feed(broker, self.VALUES)
        job = self._make_job(broker)
        job.step(max_records=4)
        state = job.checkpoint()
        job.step(max_records=3)  # uncommitted work, lost in the crash
        assert broker.topic("out").end_offset > state["sink_end"]

        recovered = self._make_job(broker)
        recovered.restore(state)
        recovered.drain()

        assert [(r.ts, r.value) for r in broker.topic("out")] == expected_sink
        assert [(r.value.value, r.value.error)
                for r in broker.topic("in.dlq")] == expected_dlq
        assert recovered.n_in == len(self.VALUES)

    def test_checkpoint_counters_round_trip(self):
        broker = Broker()
        feed(broker, self.VALUES)
        job = self._make_job(broker)
        job.drain()
        state = job.checkpoint()
        fresh = self._make_job(broker)
        fresh.restore(state)
        for attr in ("n_in", "n_out", "n_dead", "n_flagged",
                     "retries_used", "backoff_ms_total"):
            assert getattr(fresh, attr) == getattr(job, attr)
        assert fresh.circuit_breaker.state_dict() == \
            job.circuit_breaker.state_dict()

    def test_restore_rejects_wrong_job(self):
        broker = Broker()
        feed(broker, ["a"])
        job = self._make_job(broker)
        state = job.checkpoint()
        other = self._make_job(broker, name="other")
        with pytest.raises(ValueError):
            other.restore(state)

    def test_restore_rejects_unknown_version(self):
        broker = Broker()
        feed(broker, ["a"])
        job = self._make_job(broker)
        state = job.checkpoint()
        state["version"] = 99
        with pytest.raises(ValueError):
            self._make_job(broker).restore(state)
