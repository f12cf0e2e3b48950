"""Journal + profiling through the pipeline.

A study run with the journal and profiling enabled journals every phase
it runs, while stdout and every analysis output stay byte-identical to
an uninstrumented run.
"""

import pytest

from repro import RunTelemetry, WorldConfig, run_study
from repro.obs import RunJournal, read_journal

CONFIG = WorldConfig.tiny()


@pytest.fixture(scope="module")
def plain_study():
    return run_study(CONFIG)


@pytest.fixture(scope="module")
def journaled(tmp_path_factory):
    path = tmp_path_factory.mktemp("journal") / "run.jsonl"
    telemetry = RunTelemetry.create()
    study = run_study(CONFIG, telemetry=telemetry, journal=str(path),
                      profile=True)
    return study, read_journal(path)


class TestJournalContents:
    def test_run_and_phase_lifecycle(self, journaled):
        _, records = journaled
        types = [r["type"] for r in records]
        assert types[0] == "journal.open"
        assert types[-1] == "journal.close"
        assert "run.start" in types and "run.finish" in types
        started = {r["phase"] for r in records
                   if r["type"] == "phase.start"}
        finished = {r["phase"] for r in records
                    if r["type"] == "phase.finish"}
        assert started == finished
        assert {"world", "telescope", "crawl", "join", "events"} <= finished

    def test_run_start_describes_the_run(self, journaled):
        _, records = journaled
        start = next(r for r in records if r["type"] == "run.start")
        assert start["n_domains"] == CONFIG.n_domains
        assert start["profiled"] is True
        assert start["chaos"] is False
        assert "n_workers" not in start

    def test_monotonic_envelope(self, journaled):
        _, records = journaled
        seqs = [r["seq"] for r in records]
        assert seqs == list(range(len(records)))
        ts = [r["t"] for r in records]
        assert ts == sorted(ts)


class TestOneTimer:
    """The journal's phase durations are read off the phase spans."""

    @pytest.fixture(scope="class")
    def attached(self, tmp_path_factory):
        # Attached open, the way the CLI does, so the lazy analyses
        # accessed after run_study returns are journaled too.
        path = tmp_path_factory.mktemp("one-timer") / "run.jsonl"
        telemetry = RunTelemetry.create()
        telemetry.attach_journal(RunJournal(
            path, run_id=telemetry.run_id, clock=telemetry.clock,
            started_at_utc=telemetry.started_at_utc))
        study = run_study(CONFIG, telemetry=telemetry,
                          journal=telemetry.journal)
        study.monthly
        study.impact
        telemetry.journal.close()
        spans = {}
        stack = [r for r in telemetry.tracer.roots if r.name != "study"]
        stack += [c for r in telemetry.tracer.roots if r.name == "study"
                  for c in r.children]
        while stack:
            span = stack.pop()
            spans[span.name] = span
            stack += span.children
        return spans, read_journal(path)

    def test_phase_set_is_the_traced_span_set(self, attached):
        spans, records = attached
        finished = {r["phase"] for r in records
                    if r["type"] == "phase.finish"}
        assert finished == set(spans)
        assert {"analysis.monthly", "analysis.impact"} <= finished

    def test_each_duration_is_its_span_duration(self, attached):
        spans, records = attached
        for record in records:
            if record["type"] == "phase.finish":
                span = spans[record["phase"]]
                assert record["duration_s"] == round(span.duration, 6), \
                    record["phase"]


class TestDeterminism:
    """Journal + profiling observe, never perturb."""

    def test_report_is_byte_identical(self, plain_study, journaled):
        study, _ = journaled
        assert study.report() == plain_study.report()

    def test_stores_and_analyses_are_equal(self, plain_study, journaled):
        study, _ = journaled
        assert study.store == plain_study.store
        assert study.join.classified == plain_study.join.classified
        assert len(study.events) == len(plain_study.events)
        assert study.monthly.rows == plain_study.monthly.rows
