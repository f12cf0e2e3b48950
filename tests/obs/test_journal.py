"""The run journal: envelopes, binding, crash prefixes, durations."""

import json

import pytest

from repro.obs import (
    JOURNAL_SCHEMA,
    NULL_JOURNAL,
    NULL_TELEMETRY,
    NULL_TRACER,
    RunJournal,
    RunTelemetry,
    phase_durations,
    read_journal,
)
from repro.obs.clock import FakeClock


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def journal(tmp_path, clock):
    return RunJournal(tmp_path / "run.jsonl", run_id="abc123",
                      clock=clock,
                      started_at_utc="2021-03-01T12:00:00+00:00")


class TestEnvelope:
    def test_header_is_the_first_record(self, journal, tmp_path):
        journal.close()
        records = read_journal(tmp_path / "run.jsonl")
        head = records[0]
        assert head["type"] == "journal.open"
        assert head["schema"] == JOURNAL_SCHEMA
        assert head["run_id"] == "abc123"
        assert head["started_at_utc"] == "2021-03-01T12:00:00+00:00"

    def test_envelope_fields_are_deterministic(self, journal, clock,
                                               tmp_path):
        clock.advance(1.5)
        journal.emit("phase.start", phase="crawl")
        journal.close()
        record = read_journal(tmp_path / "run.jsonl")[1]
        assert record == {"seq": 1, "t": 1.5,
                          "utc": "2021-03-01T12:00:01.500000+00:00",
                          "type": "phase.start", "phase": "crawl"}

    def test_footer_counts_records(self, journal, tmp_path):
        journal.emit("a")
        journal.emit("b")
        journal.close()
        records = read_journal(tmp_path / "run.jsonl")
        assert records[-1]["type"] == "journal.close"
        assert records[-1]["records"] == 3  # header + a + b

    def test_each_record_is_one_json_line(self, journal, tmp_path):
        journal.emit("x", n=1)
        journal.close()
        with open(tmp_path / "run.jsonl") as fp:
            lines = fp.read().splitlines()
        assert len(lines) == 3
        for line in lines:
            json.loads(line)

    def test_emit_after_close_is_a_silent_noop(self, journal, tmp_path):
        journal.close()
        journal.emit("late.analysis")  # must not raise
        assert len(read_journal(tmp_path / "run.jsonl")) == 2


class TestBinding:
    def test_bound_fields_are_stamped(self, journal, tmp_path):
        bound = journal.bind(incarnation=2)
        bound.emit("worker.checkpoint", ticks=4)
        journal.close()
        record = read_journal(tmp_path / "run.jsonl")[1]
        assert record["incarnation"] == 2
        assert record["ticks"] == 4

    def test_explicit_fields_win_over_bound(self, journal, tmp_path):
        bound = journal.bind(surface="reactive")
        bound.emit("x", surface="other")
        journal.close()
        assert read_journal(tmp_path / "run.jsonl")[1]["surface"] == "other"

    def test_bind_chains(self, journal, tmp_path):
        bound = journal.bind(a=1).bind(b=2)
        bound.emit("x")
        journal.close()
        record = read_journal(tmp_path / "run.jsonl")[1]
        assert (record["a"], record["b"]) == (1, 2)


class TestCrashPrefix:
    def test_partial_trailing_line_is_ignored(self, journal, tmp_path):
        journal.emit("phase.start", phase="crawl")
        journal.close()
        path = tmp_path / "run.jsonl"
        with open(path, "a") as fp:
            fp.write('{"seq": 99, "type": "tru')  # the run died mid-write
        records = read_journal(path)
        assert [r["type"] for r in records] == \
            ["journal.open", "phase.start", "journal.close"]

    def test_every_record_is_flushed_immediately(self, journal, tmp_path):
        journal.emit("phase.start", phase="crawl")
        # No close(): the file must already hold both records.
        assert len(read_journal(tmp_path / "run.jsonl")) == 2


class TestNullJournal:
    def test_disabled_and_inert(self):
        assert not NULL_JOURNAL.enabled
        NULL_JOURNAL.emit("anything", x=1)
        NULL_JOURNAL.close()
        assert NULL_JOURNAL.bind(incarnation=1) is NULL_JOURNAL


class TestAttach:
    """A journal reads its phase durations off the spans, so it needs
    a bundle with an enabled tracer."""

    def test_null_telemetry_refuses(self, journal):
        with pytest.raises(ValueError, match="NULL_TELEMETRY"):
            NULL_TELEMETRY.attach_journal(journal)

    def test_null_tracer_refuses(self, journal):
        telemetry = RunTelemetry(tracer=NULL_TRACER)
        with pytest.raises(ValueError, match="null tracer"):
            telemetry.attach_journal(journal)
        assert telemetry.journal is NULL_JOURNAL


class TestPhaseDurations:
    def test_from_path_and_records(self, journal, clock, tmp_path):
        journal.emit("phase.start", phase="crawl")
        clock.advance(2.0)
        journal.emit("phase.finish", phase="crawl", duration_s=2.0)
        journal.emit("phase.finish", phase="join", duration_s=0.25)
        journal.close()
        path = tmp_path / "run.jsonl"
        assert phase_durations(path) == {"crawl": 2.0, "join": 0.25}
        assert phase_durations(read_journal(path)) == \
            {"crawl": 2.0, "join": 0.25}

    def test_last_finish_wins(self, journal, tmp_path):
        journal.emit("phase.finish", phase="crawl", duration_s=5.0)
        journal.emit("phase.finish", phase="crawl", duration_s=1.0)
        journal.close()
        assert phase_durations(tmp_path / "run.jsonl") == {"crawl": 1.0}
