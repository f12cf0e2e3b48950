"""Exact round-trip tests for the phase-artifact serializers.

Every artifact must satisfy two contracts: ``loads(dumps(x))`` is
semantically equal to ``x`` (bit-for-bit on every float), and
``dumps(loads(dumps(x))) == dumps(x)`` (deterministic bytes).
"""

import json

import pytest

from repro.artifacts.cache import PhaseCache
from repro.artifacts.serializers import (PHASE_SERIALIZERS, dumps_events,
                                         dumps_feed, dumps_join, dumps_store,
                                         loads_events, loads_feed, loads_join,
                                         loads_store)
from repro.artifacts.store import ArtifactStore
from repro.core.join import DatasetJoin
from repro.obs import RunTelemetry


class TestFeedRoundTrip:
    def test_exact(self, tiny_study):
        loaded = loads_feed(dumps_feed(tiny_study.feed))
        assert loaded.records == tiny_study.feed.records
        assert loaded.attacks == tiny_study.feed.attacks

    def test_deterministic_bytes(self, tiny_study):
        data = dumps_feed(tiny_study.feed)
        assert dumps_feed(loads_feed(data)) == data


class TestStoreRoundTrip:
    def test_exact(self, tiny_study):
        loaded = loads_store(dumps_store(tiny_study.store))
        assert loaded == tiny_study.store

    def test_ingest_totals_survive(self, tiny_study):
        loaded = loads_store(dumps_store(tiny_study.store))
        assert loaded.n_measurements == tiny_study.store.n_measurements
        assert loaded.n_rejected == tiny_study.store.n_rejected
        assert loaded.n_merges == tiny_study.store.n_merges

    def test_deterministic_bytes(self, tiny_study):
        data = dumps_store(tiny_study.store)
        assert dumps_store(loads_store(data)) == data


class TestJoinRoundTrip:
    def test_exact(self, tiny_study):
        loaded = loads_join(dumps_join(tiny_study.join))
        assert loaded.classified == tiny_study.join.classified
        assert loaded.rejected == []

    def test_deterministic_bytes(self, tiny_study):
        data = dumps_join(tiny_study.join)
        assert dumps_join(loads_join(data)) == data

    def test_degraded_join_refused(self, tiny_study):
        degraded = DatasetJoin()
        degraded.classified.extend(tiny_study.join.classified)
        degraded.rejected.append(object())
        with pytest.raises(ValueError, match="rejected"):
            dumps_join(degraded)


class TestEventsRoundTrip:
    def test_exact(self, tiny_study):
        loaded = loads_events(dumps_events(tiny_study.events))
        assert loaded == tiny_study.events

    def test_deterministic_bytes(self, tiny_study):
        data = dumps_events(tiny_study.events)
        assert dumps_events(loads_events(data)) == data


class TestSchemaGuards:
    def test_wrong_schema_rejected(self, tiny_study):
        data = dumps_feed(tiny_study.feed)
        with pytest.raises(ValueError, match="schema mismatch"):
            loads_store(data)

    def test_v1_store_blob_is_a_cache_miss(self, tmp_path):
        # The retired row layout: one list per aggregate.
        v1_blob = json.dumps({
            "schema": "repro.artifacts.store/v1",
            "n_measurements": 1, "n_rejected": 0, "n_merges": 0,
            "daily": [[7, 0, 1, 1, 20.0, 20.0, 20.0, 0, 0, 0]],
            "buckets": []}).encode()
        with pytest.raises(ValueError, match="schema mismatch"):
            loads_store(v1_blob)
        telemetry = RunTelemetry.create()
        cache = PhaseCache(ArtifactStore(str(tmp_path)), telemetry)
        cache.store.put("v1-key", v1_blob, phase="crawl")
        assert cache.fetch("crawl", "v1-key") is None
        counters = telemetry.snapshot()["metrics"]["counters"]
        assert [k for k in counters if k.startswith("repro.cache.")] == \
            ["repro.cache.misses{phase=crawl}"]

    def test_registry_covers_every_phase(self):
        assert set(PHASE_SERIALIZERS) == \
            {"telescope", "crawl", "join", "events"}
        for dumps, loads in PHASE_SERIALIZERS.values():
            assert callable(dumps) and callable(loads)
