"""Tests for the sharded measurement store: build, reuse, gc, catalog."""

import pytest

from repro import WorldConfig
from repro.artifacts import ArtifactStore, day_keys
from repro.artifacts.fingerprint import attacks_starting_on, events_crawl_cover
from repro.obs import RunTelemetry
from repro.openintel.platform import OpenIntelPlatform
from repro.openintel.storage import MeasurementStore
from repro.serve import SERVE_PHASES, ShardedStudyStore
from repro.serve import store as serve_store_module
from repro.util.timeutil import DAY, parse_ts

SMALL = dict(seed=11, n_domains=300, attacks_per_month=150,
             start="2021-03-01", end_exclusive="2021-03-04")


@pytest.fixture()
def config() -> WorldConfig:
    return WorldConfig(**SMALL)


class TestPlan:
    def test_cold_plan_computes_every_partition(self, config, tmp_path):
        store = ShardedStudyStore(config, str(tmp_path))
        plans = store.plan()
        assert len(plans) == 3
        for plan in plans:
            assert not plan.warm
            assert set(plan.missing) == set(SERVE_PHASES)

    def test_plan_is_side_effect_free(self, config, tmp_path):
        store = ShardedStudyStore(config, str(tmp_path))
        store.plan()
        assert len(ArtifactStore(str(tmp_path))) == 0

    def test_plan_keys_match_day_keys(self, config, tmp_path):
        store = ShardedStudyStore(config, str(tmp_path))
        expected = day_keys(config, store.world().attacks)
        for plan in store.plan():
            assert plan.keys == expected[plan.day]

    def test_to_doc_is_deterministic(self, config, tmp_path):
        store = ShardedStudyStore(config, str(tmp_path))
        docs = [p.to_doc() for p in store.plan()]
        again = [p.to_doc() for p in store.plan()]
        assert docs == again
        assert docs[0]["day"] == "2021-03-01"
        assert set(docs[0]["actions"].values()) == {"compute"}


class TestBuild:
    def test_cold_build_computes_everything(self, config, tmp_path):
        store = ShardedStudyStore(config, str(tmp_path))
        report = store.build()
        assert report.n_computed == 3 * len(SERVE_PHASES)
        assert report.n_reused == 0

    def test_warm_build_reuses_everything(self, config, tmp_path):
        ShardedStudyStore(config, str(tmp_path)).build()
        report = ShardedStudyStore(config, str(tmp_path)).build()
        assert report.n_computed == 0
        assert report.n_reused == 3 * len(SERVE_PHASES)

    def test_warm_summary_reports_zero_computed(self, config, tmp_path):
        ShardedStudyStore(config, str(tmp_path)).build()
        summary = ShardedStudyStore(config, str(tmp_path)).build().summary()
        assert summary.count("computed 0") == len(SERVE_PHASES)
        assert "(0 partitions computed, 12 reused)" in summary

    def test_partition_counters_match_report(self, config, tmp_path):
        telemetry = RunTelemetry.create()
        store = ShardedStudyStore(config, str(tmp_path),
                                  telemetry=telemetry)
        report = store.build()
        counters = telemetry.registry.snapshot()["counters"]
        for phase in SERVE_PHASES:
            computed = counters.get(
                f"repro.serve.partitions{{action=computed,phase={phase}}}", 0)
            reused = counters.get(
                f"repro.serve.partitions{{action=reused,phase={phase}}}", 0)
            assert computed == len(report.computed[phase])
            assert reused == 0

    def test_build_persists_catalog(self, config, tmp_path):
        ShardedStudyStore(config, str(tmp_path)).build()
        phases = {e.phase for e in ArtifactStore(str(tmp_path)).entries()}
        assert "catalog" in phases


class TestLoadDay:
    def test_load_outside_timeline_raises(self, config, tmp_path):
        store = ShardedStudyStore(config, str(tmp_path))
        with pytest.raises(KeyError):
            store.load_day(parse_ts("2020-01-01"), "events")

    def test_unknown_phase_raises(self, config, tmp_path):
        store = ShardedStudyStore(config, str(tmp_path))
        with pytest.raises(KeyError):
            store.load_day(parse_ts(SMALL["start"]), "nonsense")

    def test_cold_shard_returns_none(self, config, tmp_path):
        store = ShardedStudyStore(config, str(tmp_path))
        assert store.load_day(parse_ts(SMALL["start"]), "events") is None

    def test_built_shard_loads(self, config, tmp_path):
        store = ShardedStudyStore(config, str(tmp_path))
        store.build()
        day = parse_ts(SMALL["start"])
        join = store.load_day(day, "join")
        assert join is not None
        # Second load is served from the warm in-memory set (same object).
        assert store.load_day(day, "join") is join

    def test_loaded_cap_evicts_oldest(self, config, tmp_path, monkeypatch):
        monkeypatch.setattr(serve_store_module, "LOADED_CAP", 2)
        store = ShardedStudyStore(config, str(tmp_path))
        store.build()
        days = store.days()
        for day in days:
            store.load_day(day, "join")
        assert len(store._loaded) <= 2


class TestMaintenance:
    def test_flag_is_scoped(self, config, tmp_path):
        store = ShardedStudyStore(config, str(tmp_path))
        assert not store.in_maintenance
        with store.maintenance():
            assert store.in_maintenance
        assert not store.in_maintenance

    def test_gc_to_zero_leaves_shards_cold(self, config, tmp_path):
        store = ShardedStudyStore(config, str(tmp_path))
        store.build()
        day = store.days()[0]
        assert store.load_day(day, "join") is not None
        evicted = store.gc(max_bytes=0)
        assert evicted
        assert store.load_day(day, "join") is None

    def test_gc_then_rebuild_recomputes(self, config, tmp_path):
        store = ShardedStudyStore(config, str(tmp_path))
        store.build()
        store.gc(max_bytes=0)
        report = ShardedStudyStore(config, str(tmp_path)).build()
        assert report.n_computed == 3 * len(SERVE_PHASES)


class TestCatalog:
    def test_catalog_contents(self, config, tmp_path):
        store = ShardedStudyStore(config, str(tmp_path))
        catalog = store.catalog()
        world = store.world()
        assert catalog["n_domains"] == len(world.directory.domains)
        assert catalog["start"] == parse_ts(SMALL["start"])
        assert catalog["end"] == parse_ts(SMALL["end_exclusive"])
        assert len(catalog["days"]) == 3
        some_domain = next(iter(catalog["domains"]))
        assert isinstance(catalog["domains"][some_domain], int)

    def test_catalog_read_back_from_cache(self, config, tmp_path):
        ShardedStudyStore(config, str(tmp_path)).catalog()
        fresh = ShardedStudyStore(config, str(tmp_path))
        catalog = fresh.catalog()
        # No world build was needed: the catalog came from the cache.
        assert fresh._world is None
        assert catalog["n_domains"] > 0


class TestDayChaining:
    def test_events_day_uses_neighbouring_crawl(self, config, tmp_path):
        """An events partition must see measurements past midnight:
        attacks near day end have impact windows crossing into the
        next day."""
        store = ShardedStudyStore(config, str(tmp_path))
        store.build()
        for day in store.days():
            events = store.load_day(day, "events")
            for event in events:
                assert event.attack.start >= day
                assert event.attack.start < day + DAY

    def test_merged_crawl_cover_equals_one_crawl(self, built_store):
        """Day partitions share no aggregate key (each key carries its
        day or 5-minute bucket), so the crawl days an events partition
        merges equal one crawl over the same window, bit for bit."""
        world = built_store.world()
        cover = max((events_crawl_cover(
            day, attacks_starting_on(world.attacks, day),
            built_store.config.timeline) for day in built_store.days()),
            key=len)
        assert len(cover) > 1
        merged = MeasurementStore()
        for day in cover:
            merged.merge(built_store.load_day(day, "crawl"))
        crawl = OpenIntelPlatform(world).run(cover[0], cover[-1] + DAY)
        assert merged == crawl
        assert merged.n_merges == len(cover)
