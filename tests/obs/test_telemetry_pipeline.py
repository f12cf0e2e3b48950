"""Telemetry threaded through the pipeline: equivalence, accounting, chaos.

The tentpole contracts under test:

- **Determinism**: a study's outputs are bit-identical whether telemetry
  is enabled or the default no-op bundle. Two *fresh* worlds are built
  from the same config (re-running over a shared world would consume
  the world's telescope RNG stream and diverge for unrelated reasons).
- **Accounting**: chaos fault counters match the injector's event log,
  and the crawl/store counters match the stores they describe.
"""

import json

import pytest

from repro import ChaosConfig, RunTelemetry, WorldConfig, run_study
from repro.obs import SNAPSHOT_SCHEMA

CONFIG = WorldConfig.tiny()


@pytest.fixture(scope="module")
def plain_study():
    """A tiny clean run with telemetry left at the no-op default."""
    return run_study(CONFIG)


@pytest.fixture(scope="module")
def traced_study():
    """The same tiny clean run, fully instrumented."""
    return run_study(CONFIG, telemetry=RunTelemetry.create())


@pytest.fixture(scope="module")
def chaos_study():
    """A tiny chaos run, fully instrumented."""
    return run_study(CONFIG, chaos=ChaosConfig.preset("moderate", seed=0),
                     telemetry=RunTelemetry.create())


class TestEquivalence:
    """Telemetry observes, never perturbs."""

    def test_reports_are_bit_identical(self, plain_study, traced_study):
        assert plain_study.report() == traced_study.report()

    def test_stores_and_events_are_equal(self, plain_study, traced_study):
        assert plain_study.store == traced_study.store
        assert len(plain_study.events) == len(traced_study.events)
        assert plain_study.join.classified == traced_study.join.classified

    def test_disabled_run_records_nothing(self, plain_study):
        assert not plain_study.telemetry.enabled
        snap = plain_study.telemetry.snapshot()
        assert snap["metrics"] == {"counters": {}, "gauges": {},
                                   "histograms": {}}
        assert snap["spans"] == []


class TestCleanRunAccounting:
    def test_crawl_rows_match_the_store(self, traced_study):
        counters = traced_study.telemetry.snapshot()["metrics"]["counters"]
        assert counters["repro.crawl.rows"] == traced_study.store.n_measurements
        assert counters["repro.store.ingested"] == \
            traced_study.store.n_measurements
        assert counters["repro.store.rejected"] == 0

    def test_store_gauges(self, traced_study):
        gauges = traced_study.telemetry.snapshot()["metrics"]["gauges"]
        assert gauges["repro.store.daily_aggregates"] > 0
        assert gauges["repro.store.bucket_aggregates"] > 0

    def test_no_chaos_or_stream_metrics_on_a_clean_run(self, traced_study):
        counters = traced_study.telemetry.snapshot()["metrics"]["counters"]
        assert not any(name.startswith("repro.chaos.") for name in counters)
        assert not any(name.startswith("repro.stream.") for name in counters)


class TestSpans:
    def test_study_span_tree(self, traced_study):
        tracer = traced_study.telemetry.tracer
        study = tracer.roots[0]
        assert study.name == "study"
        assert study.duration is not None and study.duration >= 0
        child_names = [c.name for c in study.children]
        assert child_names == ["world", "telescope", "crawl", "join",
                               "events"]
        crawl = study.children[2]
        assert crawl.meta == {"rows": traced_study.store.n_measurements}

    def test_lazy_analyses_span_as_their_own_roots(self, traced_study):
        traced_study.monthly  # computed on first access, after "study" closed
        traced_study.monthly  # cached: no second span
        roots = [r.name for r in traced_study.telemetry.tracer.roots]
        assert roots.count("analysis.monthly") == 1
        assert roots[0] == "study"

    def test_chaos_run_gains_a_feed_harden_span(self, chaos_study):
        study = chaos_study.telemetry.tracer.roots[0]
        child_names = [c.name for c in study.children]
        assert child_names == ["world", "telescope", "crawl", "feed_harden",
                               "join", "events"]

    def test_snapshot_is_json_round_trippable(self, traced_study):
        snap = json.loads(json.dumps(traced_study.telemetry.snapshot()))
        assert snap["schema"] == SNAPSHOT_SCHEMA
        assert snap["spans"][0]["name"] == "study"


class TestChaosAccounting:
    def test_fault_counters_match_the_event_log(self, chaos_study):
        injector = chaos_study.chaos
        assert injector is not None and injector.events
        counters = chaos_study.telemetry.snapshot()["metrics"]["counters"]
        chaos_counters = {name: n for name, n in counters.items()
                          if name.startswith("repro.chaos.faults")}
        assert sum(chaos_counters.values()) == len(injector.events)
        # Per-(surface, kind) breakdown matches the injector's own tally.
        for (surface, kind), n in injector.counts.items():
            key = f"repro.chaos.faults{{kind={kind},surface={surface}}}"
            assert chaos_counters[key] == n

    def test_stream_counters_cover_the_hardened_feed(self, chaos_study):
        counters = chaos_study.telemetry.snapshot()["metrics"]["counters"]
        n_in = counters["repro.stream.records_in{job=feed-validate}"]
        n_out = counters["repro.stream.records_out{job=feed-validate}"]
        n_dead = counters["repro.stream.dead_letters{job=feed-validate}"]
        assert n_in > 0
        assert n_out <= n_in
        assert n_dead == len(chaos_study.chaos.dead_letters)

    def test_store_rejects_are_counted(self, chaos_study):
        counters = chaos_study.telemetry.snapshot()["metrics"]["counters"]
        assert counters["repro.store.rejected"] == \
            chaos_study.store.n_rejected
