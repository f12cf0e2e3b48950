"""Concurrency regression tests: writers racing readers on one cache.

``repro serve`` reads artifacts (``get(touch=False)``, shared lock)
while build passes and gc may be rewriting the manifest (exclusive
lock, atomic ``os.replace``). These tests hammer both sides from
threads and from separate processes and assert that no reader ever
sees a torn manifest or a truncated blob.
"""

import json
import multiprocessing
import os
import threading

from repro.artifacts.store import ArtifactStore

KEYS = [f"{i:02x}" * 32 for i in range(24)]
PAYLOADS = {key: (key[:8] * 64).encode() for key in KEYS}


class TestThreadedReadersVsWriter:
    def test_reads_never_tear_while_writing(self, tmp_path):
        # Both sides run a *bounded* loop: an unbounded
        # read-until-writer-done loop can livelock, because back-to-back
        # LOCK_SH acquisitions from several reader threads can starve
        # the writer's LOCK_EX indefinitely (flock is not fair).
        store = ArtifactStore(str(tmp_path))
        errors = []

        def writer():
            try:
                for round_ in range(20):
                    for key in KEYS:
                        store.put(key, PAYLOADS[key], phase="telescope")
                    if round_ % 5 == 4:
                        store.gc(max_bytes=len(PAYLOADS[KEYS[0]]) * 8)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def reader():
            try:
                for _ in range(60):
                    for key in KEYS:
                        blob = store.get(key, touch=False)
                        # Evicted or not-yet-written is fine; a partial
                        # or wrong payload is the race we guard against.
                        assert blob is None or blob == PAYLOADS[key]
                    store.entries()
                    store.total_bytes
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors

    def test_touchless_get_does_not_rewrite_manifest(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put(KEYS[0], b"payload", phase="join")
        before = store.entries()[0].last_used
        mtime = os.path.getmtime(os.path.join(str(tmp_path), "index.json"))
        for _ in range(5):
            assert store.get(KEYS[0], touch=False) == b"payload"
        assert store.entries()[0].last_used == before
        assert os.path.getmtime(
            os.path.join(str(tmp_path), "index.json")) == mtime

    def test_touched_get_still_updates_lru(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put(KEYS[0], b"payload")
        before = store.entries()[0].last_used
        store.get(KEYS[0])
        assert store.entries()[0].last_used >= before


def _process_writer(root: str, worker: int, n_rounds: int) -> None:
    store = ArtifactStore(root)
    for round_ in range(n_rounds):
        for i, key in enumerate(KEYS):
            if i % 2 == worker % 2:
                store.put(key, PAYLOADS[key], phase=f"w{worker}")
        store.entries()


class TestProcessWriters:
    def test_parallel_process_writers_keep_manifest_consistent(
            self, tmp_path):
        ctx = multiprocessing.get_context("spawn")
        procs = [ctx.Process(target=_process_writer,
                             args=(str(tmp_path), worker, 6))
                 for worker in range(3)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        store = ArtifactStore(str(tmp_path))
        entries = {entry.key: entry for entry in store.entries()}
        assert set(entries) == set(KEYS)
        for key in KEYS:
            assert store.get(key, touch=False) == PAYLOADS[key]
            assert entries[key].size == len(PAYLOADS[key])
        # The manifest on disk is intact JSON with the expected schema.
        with open(os.path.join(str(tmp_path), "index.json")) as fp:
            doc = json.load(fp)
        assert doc["schema"] == "repro.artifacts.index/v1"
        assert set(doc["entries"]) == set(KEYS)

    def test_writer_racing_process_readers(self, tmp_path):
        ctx = multiprocessing.get_context("spawn")
        writer = ctx.Process(target=_process_writer,
                             args=(str(tmp_path), 0, 10))
        writer.start()
        store = ArtifactStore(str(tmp_path))
        seen = 0
        # Bounded sweeps (see the threaded test): an is_alive()-gated
        # loop could starve the writer's exclusive lock forever.
        for _ in range(80):
            for key in KEYS:
                blob = store.get(key, touch=False)
                if blob is not None:
                    assert blob == PAYLOADS[key]
                    seen += 1
            store.entries()
        writer.join(timeout=120)
        assert writer.exitcode == 0
        # After the writer exits, its keys (the even-indexed half) must
        # all read back complete.
        for i, key in enumerate(KEYS):
            if i % 2 == 0:
                assert store.get(key, touch=False) == PAYLOADS[key]
