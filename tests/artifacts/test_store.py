"""Tests for the on-disk artifact store: blobs, manifest, LRU gc."""

import json
import os

import pytest

import repro.artifacts.store as store_module
from repro.artifacts.store import ArtifactStore


@pytest.fixture()
def fake_time(monkeypatch):
    """A deterministic, strictly-increasing clock for LRU assertions."""
    state = {"now": 1000.0}

    def tick():
        state["now"] += 1.0
        return state["now"]

    monkeypatch.setattr(store_module.time, "time", tick)
    return state


class TestPutGet:
    def test_roundtrip(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put("ab" * 32, b"payload", phase="telescope")
        assert store.get("ab" * 32) == b"payload"

    def test_miss_returns_none(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        assert store.get("cd" * 32) is None
        assert not store.has("cd" * 32)

    def test_has_after_put(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put("ab" * 32, b"x")
        assert store.has("ab" * 32)

    def test_blobs_sharded_by_key_prefix(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        key = "ef" * 32
        store.put(key, b"x")
        assert (tmp_path / "objects" / "ef" / key).is_file()

    def test_overwrite_updates_size_keeps_created(self, tmp_path, fake_time):
        store = ArtifactStore(str(tmp_path))
        key = "ab" * 32
        store.put(key, b"small")
        created = store.entries()[0].created
        store.put(key, b"a much larger payload")
        (entry,) = store.entries()
        assert entry.size == len(b"a much larger payload")
        assert entry.created == created
        assert entry.last_used > created

    def test_no_temp_files_left_behind(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put("ab" * 32, b"x", phase="join")
        leftovers = [p for p in tmp_path.rglob("*.tmp")]
        assert leftovers == []


class TestManifest:
    def test_persists_across_instances(self, tmp_path):
        ArtifactStore(str(tmp_path)).put("ab" * 32, b"x", phase="crawl")
        reopened = ArtifactStore(str(tmp_path))
        assert reopened.get("ab" * 32) == b"x"
        assert reopened.entries()[0].phase == "crawl"

    def test_damaged_index_treated_as_empty(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put("ab" * 32, b"x")
        (tmp_path / "index.json").write_text("{ not json")
        assert len(store) == 0
        assert store.get("ab" * 32) is None

    def test_wrong_schema_treated_as_empty(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        (tmp_path / "index.json").write_text(
            json.dumps({"schema": "something/else", "entries": {"k": {}}}))
        assert len(store) == 0

    def test_vanished_blob_is_a_miss_and_dropped(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        key = "ab" * 32
        store.put(key, b"x")
        os.unlink(store._blob_path(key))
        assert store.get(key) is None
        assert len(store) == 0

    def test_get_stamps_last_used(self, tmp_path, fake_time):
        store = ArtifactStore(str(tmp_path))
        store.put("aa" * 32, b"x")
        store.put("bb" * 32, b"y")
        store.get("aa" * 32)  # most recently used now
        assert [e.key[:2] for e in store.entries()] == ["aa", "bb"]


class TestAccounting:
    def test_len_and_total_bytes(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put("aa" * 32, b"four")
        store.put("bb" * 32, b"sixsix")
        assert len(store) == 2
        assert store.total_bytes == 10


class TestGc:
    def test_cap_that_fits_is_noop(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put("aa" * 32, b"x" * 100)
        assert store.gc(100) == []
        assert len(store) == 1

    def test_evicts_least_recently_used_first(self, tmp_path, fake_time):
        store = ArtifactStore(str(tmp_path))
        store.put("aa" * 32, b"x" * 40)
        store.put("bb" * 32, b"y" * 40)
        store.put("cc" * 32, b"z" * 40)
        store.get("aa" * 32)  # refresh aa: bb is now the LRU entry
        evicted = store.gc(max_bytes=100)
        assert [e.key[:2] for e in evicted] == ["bb"]
        assert store.total_bytes == 80
        assert store.get("bb" * 32) is None
        assert not os.path.exists(store._blob_path("bb" * 32))
        assert store.get("aa" * 32) == b"x" * 40

    def test_positional_cap(self, tmp_path, fake_time):
        store = ArtifactStore(str(tmp_path))
        store.put("aa" * 32, b"x" * 40)
        store.put("bb" * 32, b"y" * 40)
        evicted = store.gc(50)
        assert len(evicted) == 1
        assert store.total_bytes <= 50

    def test_zero_cap_evicts_everything(self, tmp_path, fake_time):
        store = ArtifactStore(str(tmp_path))
        store.put("aa" * 32, b"x")
        store.put("bb" * 32, b"y")
        assert len(store.gc(max_bytes=0)) == 2
        assert len(store) == 0


class TestClear:
    def test_clear_removes_entries_and_blobs(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put("aa" * 32, b"x")
        store.put("bb" * 32, b"y")
        assert store.clear() == 2
        assert len(store) == 0
        assert not os.path.exists(store._blob_path("aa" * 32))

    def test_clear_empty_store(self, tmp_path):
        assert ArtifactStore(str(tmp_path)).clear() == 0
