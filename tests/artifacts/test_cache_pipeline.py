"""Pipeline integration for the phase cache: the ISSUE's acceptance bar.

Warm-cache ``run_study`` output must be bit-identical to the cold run
that populated the cache — at 1, 2, and 4 workers — and the warm run
must visibly skip the telescope and crawl phases (cached spans and
``repro.cache.hits > 0``). A chaos run uses the cache only for the
phases no fault reaches (the telescope, and the crawl when transport
faults are off) and prints its cold output byte for byte.
"""

import dataclasses
import warnings

import pytest

from repro import WorldConfig, build_world, run_study
from repro.artifacts.cache import PhaseCache
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

    def test_each_save_is_a_span_under_its_phase(self, tmp_path):
        telemetry = RunTelemetry.create()
        run_study(WorldConfig.tiny(), cache=str(tmp_path / "fresh"),
                  telemetry=telemetry)
        (study,) = [s for s in telemetry.snapshot()["spans"]
                    if s["name"] == "study"]
        counters = telemetry.snapshot()["metrics"]["counters"]
        saves = {}
        for span in study["children"]:
            for child in span.get("children", []):
                if child["name"] == "cache.save":
                    saves[span["name"]] = child["meta"]
        assert sorted(saves) == sorted(PHASES)
        for phase, meta in saves.items():
            assert meta == {"phase": phase, "bytes": counters[
                f"repro.cache.bytes_written{{phase={phase}}}"]}

    def test_an_untraced_save_records_no_span(self, tiny_study, tmp_path):
        cache = PhaseCache(ArtifactStore(str(tmp_path)))
        assert cache.save("crawl", "k", tiny_study.store)
        assert cache.telemetry.tracer.snapshot() == []


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


def _phase_traffic(telemetry, phase):
    """Every ``repro.cache.*`` counter a run recorded for ``phase``."""
    counters = telemetry.snapshot()["metrics"]["counters"]
    return {k: v for k, v in counters.items()
            if k.startswith("repro.cache.")
            and k.endswith(f"{{phase={phase}}}")}


def _chaos_outputs(study):
    """What a chaos run shows: report, fault summary, fault log, dead
    letters (``repr``, since a corrupted record may hold a NaN)."""
    injector = study.chaos
    return (study.report(), injector.summary(), injector.events,
            repr(injector.dead_letters))


def _feed_and_store_chaos(seed):
    """The moderate preset without its transport faults: no fault
    reaches the crawl."""
    return dataclasses.replace(ChaosConfig.preset("moderate", seed=seed),
                               transport=FaultPolicy())


@pytest.fixture(scope="module", params=[1, 2, 3], ids=lambda s: f"seed-{s}")
def chaos_runs(request, cold_study, cache_dir):
    """A cold moderate-chaos run, and the same run against the cache the
    clean ``cold_study`` filled, with its telemetry."""
    chaos = ChaosConfig.preset("moderate", seed=request.param)
    cold = run_study(WorldConfig.tiny(), chaos=chaos)
    telemetry = RunTelemetry.create()
    warm = run_study(WorldConfig.tiny(), chaos=chaos, cache=cache_dir,
                     telemetry=telemetry)
    return cold, warm, telemetry


class TestChaosComposesWithCache:
    def test_warm_chaos_run_prints_its_cold_output(self, chaos_runs):
        cold, warm, _ = chaos_runs
        assert _chaos_outputs(warm) == _chaos_outputs(cold)
        assert warm.store == cold.store

    def test_reads_the_telescope_and_nothing_faults_reach(self, chaos_runs):
        _, _, telemetry = chaos_runs
        assert _phase_traffic(telemetry, "telescope")[
            "repro.cache.hits{phase=telescope}"] == 1
        # Transport faults are on, so the crawl stays cold too.
        for phase in ("crawl", "join", "events"):
            assert _phase_traffic(telemetry, phase) == {}

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_feed_and_store_faults_also_hit_the_crawl(self, cold_study,
                                                      cache_dir, seed):
        chaos = _feed_and_store_chaos(seed)
        cold = run_study(WorldConfig.tiny(), chaos=chaos)
        telemetry = RunTelemetry.create()
        warm = run_study(WorldConfig.tiny(), chaos=chaos, cache=cache_dir,
                         telemetry=telemetry)
        assert _chaos_outputs(warm) == _chaos_outputs(cold)
        assert warm.chaos.counts[("store", "corrupt")] > 0
        for phase in ("telescope", "crawl"):
            assert _phase_traffic(telemetry, phase)[
                f"repro.cache.hits{{phase={phase}}}"] == 1
        for phase in ("join", "events"):
            assert _phase_traffic(telemetry, phase) == {}
        # The store faults damaged a freshly decoded store, not the
        # cached crawl: a clean run still fetches the clean store.
        assert run_study(WorldConfig.tiny(), cache=cache_dir).store == \
            cold_study.store

    def test_chaos_run_fills_only_the_clean_phases(self, cold_study,
                                                   tmp_path):
        cache = str(tmp_path / "cache")
        telemetry = RunTelemetry.create()
        run_study(WorldConfig.tiny(), chaos=_feed_and_store_chaos(1),
                  cache=cache, telemetry=telemetry)
        assert sorted(e.phase for e in ArtifactStore(cache).entries()) == \
            ["crawl", "telescope"]
        assert _phase_traffic(telemetry, "join") == {}
        # The crawl was saved before the store faults damaged it.
        warm = run_study(WorldConfig.tiny(), cache=cache)
        assert warm.store == cold_study.store
        assert warm.report() == cold_study.report()


class TestCacheBypass:
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
