"""Pipeline integration for the phase cache: the ISSUE's acceptance bar.

Warm-cache ``run_study`` output must be bit-identical to the cold run
that populated the cache — at 1, 2, and 4 workers — the warm run must
visibly skip the telescope and crawl phases (cached spans and
``repro.cache.hits > 0``), and chaos runs must never read or write the
cache.
"""

import warnings

import pytest

from repro import WorldConfig, build_world, run_study
from repro.artifacts.fingerprint import PHASES, study_keys
from repro.artifacts.store import ArtifactStore
from repro.chaos import ChaosConfig, FaultPolicy
from repro.obs import RunTelemetry, read_journal
from repro.world.simulation import _ATTACK_DERIVED


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("artifact-cache"))


@pytest.fixture(scope="module")
def cold_study(cache_dir):
    """The cache-populating run: every phase misses, computes, stores."""
    return run_study(WorldConfig.tiny(), cache=cache_dir)


def _counter_total(telemetry, name):
    counters = telemetry.snapshot()["metrics"]["counters"]
    return sum(v for k, v in counters.items() if k.startswith(name))


def _cached_span_names(telemetry):
    names = []

    def walk(spans):
        for span in spans:
            if span.get("meta", {}).get("cached"):
                names.append(span["name"])
            walk(span.get("children", []))

    walk(telemetry.snapshot()["spans"])
    return names


class TestColdRunPopulates:
    def test_every_phase_stored(self, cold_study, cache_dir):
        store = ArtifactStore(cache_dir)
        assert len(store) == len(PHASES)
        assert sorted(e.phase for e in store.entries()) == sorted(PHASES)

    def test_cold_run_counts_misses_then_writes(self, tmp_path):
        telemetry = RunTelemetry.create()
        run_study(WorldConfig.tiny(), cache=str(tmp_path / "fresh"),
                  telemetry=telemetry)
        assert _counter_total(telemetry, "repro.cache.misses") == len(PHASES)
        assert _counter_total(telemetry, "repro.cache.hits") == 0
        assert _counter_total(telemetry, "repro.cache.bytes_written") > 0


class TestWarmColdEquivalence:
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_warm_output_bit_identical(self, cold_study, cache_dir,
                                       n_workers):
        warm = run_study(WorldConfig.tiny(), cache=cache_dir,
                         n_workers=n_workers)
        assert warm.report() == cold_study.report()
        assert warm.store == cold_study.store
        assert warm.feed.attacks == cold_study.feed.attacks
        assert warm.join.classified == cold_study.join.classified
        assert warm.events == cold_study.events

    def test_warm_run_hits_every_phase(self, cold_study, cache_dir):
        telemetry = RunTelemetry.create()
        run_study(WorldConfig.tiny(), cache=cache_dir, telemetry=telemetry)
        assert _counter_total(telemetry, "repro.cache.hits") == len(PHASES)
        assert _counter_total(telemetry, "repro.cache.misses") == 0
        assert _counter_total(telemetry, "repro.cache.bytes_read") > 0

    def test_warm_run_marks_spans_cached(self, cold_study, cache_dir):
        telemetry = RunTelemetry.create()
        run_study(WorldConfig.tiny(), cache=cache_dir, telemetry=telemetry)
        cached = _cached_span_names(telemetry)
        # The acceptance bar: telescope + crawl visibly skipped.
        assert "telescope" in cached and "crawl" in cached
        assert set(cached) == set(PHASES)

    def test_different_seed_misses(self, cold_study, cache_dir):
        telemetry = RunTelemetry.create()
        run_study(WorldConfig.tiny(seed=7), cache=cache_dir,
                  telemetry=telemetry)
        assert _counter_total(telemetry, "repro.cache.hits") == 0
        assert _counter_total(telemetry, "repro.cache.misses") == len(PHASES)


class TestDeferredBuild:
    """A warm run builds the crawl tables and the feed records only when
    something reads them; the report reads neither."""

    def test_report_builds_no_table(self, cold_study, cache_dir):
        warm = run_study(WorldConfig.tiny(), cache=cache_dir)
        assert warm.report() == cold_study.report()
        assert not {"daily", "buckets"} & set(vars(warm.store))
        assert "records" not in vars(warm.feed)

    def test_report_builds_no_attack_index(self, cold_study, cache_dir):
        # The index serves only the telescope and the crawl, which a
        # fully cached run fetches.
        warm = run_study(WorldConfig.tiny(), cache=cache_dir)
        warm.report()
        assert not set(_ATTACK_DERIVED) & set(vars(warm.world))

    def test_first_access_equals_cold(self, cold_study, cache_dir):
        warm = run_study(WorldConfig.tiny(), cache=cache_dir)
        assert warm.store.daily == cold_study.store.daily
        assert warm.store.buckets == cold_study.store.buckets
        # All-failure buckets round-trip too.
        assert any(agg.ok_n == 0 and agg.avg_rtt is None
                   for agg in warm.store.buckets.values())
        records = warm.feed.records
        assert records == cold_study.feed.records
        order = [(r.window_ts, r.victim_ip) for r in records]
        assert order == sorted(order)

    def test_warm_telemetry_publishes_cold_store_metrics(self, tmp_path):
        def store_metrics():
            telemetry = RunTelemetry.create()
            run_study(WorldConfig.tiny(), cache=str(tmp_path),
                      telemetry=telemetry)
            metrics = telemetry.snapshot()["metrics"]
            return {kind: {k: v for k, v in metrics[kind].items()
                           if k.startswith("repro.store.")}
                    for kind in ("counters", "gauges")}

        cold = store_metrics()
        assert cold["counters"] and cold["gauges"]
        assert store_metrics() == cold

    def test_corrupt_entries_refill_on_the_next_run(self, tmp_path):
        cache = str(tmp_path / "cache")
        cold = run_study(WorldConfig.tiny(), cache=cache)
        keys = study_keys(WorldConfig.tiny())
        store = ArtifactStore(cache)
        for phase in ("telescope", "crawl"):
            store.put(keys[phase], store.get(keys[phase])[:-8], phase=phase)
        journal = str(tmp_path / "run.jsonl")
        refill = run_study(WorldConfig.tiny(), cache=cache, journal=journal)
        assert refill.report() == cold.report()
        assert sorted(r["phase"] for r in read_journal(journal)
                      if r["type"] == "cache.miss" and r.get("corrupt")) \
            == ["crawl", "telescope"]
        telemetry = RunTelemetry.create()
        run_study(WorldConfig.tiny(), cache=cache, telemetry=telemetry)
        assert _counter_total(telemetry, "repro.cache.hits") == len(PHASES)


class TestCacheBypass:
    def test_chaos_never_reads_or_writes_cache(self, cold_study, cache_dir):
        store = ArtifactStore(cache_dir)
        before = {(e.key, e.size, e.last_used) for e in store.entries()}
        telemetry = RunTelemetry.create()
        chaos = ChaosConfig(seed=5, transport=FaultPolicy(drop_p=0.05))
        with pytest.warns(RuntimeWarning, match="chaos runs bypass"):
            run_study(WorldConfig.tiny(), cache=cache_dir, chaos=chaos,
                      telemetry=telemetry)
        after = {(e.key, e.size, e.last_used) for e in store.entries()}
        assert after == before  # nothing read (no last_used stamp), nothing written
        assert _counter_total(telemetry, "repro.cache.hits") == 0
        assert _counter_total(telemetry, "repro.cache.misses") == 0
        assert _counter_total(telemetry, "repro.cache.bytes_written") == 0

    def test_prebuilt_world_bypasses_with_warning(self, cache_dir):
        world = build_world(WorldConfig.tiny(seed=11))
        store = ArtifactStore(cache_dir)
        n_before = len(store)
        with pytest.warns(RuntimeWarning, match="pre-built world"):
            run_study(world=world, cache=cache_dir)
        assert len(store) == n_before

    def test_clean_cache_run_emits_no_warning(self, cold_study, cache_dir):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_study(WorldConfig.tiny(), cache=cache_dir)


class TestCacheArgumentForms:
    def test_accepts_artifact_store(self, cold_study, cache_dir):
        telemetry = RunTelemetry.create()
        run_study(WorldConfig.tiny(), cache=ArtifactStore(cache_dir),
                  telemetry=telemetry)
        assert _counter_total(telemetry, "repro.cache.hits") == len(PHASES)
