"""The on-disk artifact store: content-addressed blobs + manifest.

Layout of a cache directory::

    <root>/
      index.json          # manifest: key -> {phase, size, created, last_used}
      lock                # advisory lockfile serializing manifest updates
      objects/<k[:2]>/<k> # one blob per key (sha256 hex, sharded by prefix)

Blobs are addressed by their phase fingerprint key (see
:mod:`repro.artifacts.fingerprint`) and written atomically (temp file +
``os.replace``), so a crashed writer can never leave a truncated blob
behind. Manifest updates run under an advisory ``flock`` so concurrent
study runs sharing one cache directory cannot corrupt the index; blob
writes themselves need no lock because two writers of the same key are
writing identical bytes (the key fixes the content).

The store is a plain LRU: :meth:`ArtifactStore.get` stamps
``last_used``, and :meth:`ArtifactStore.gc` evicts least-recently-used
entries until the store fits a byte cap.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.util.fileio import atomic_write

try:  # pragma: no cover - fcntl is present on every POSIX target
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None

__all__ = ["ArtifactEntry", "ArtifactStore"]

_INDEX = "index.json"
_LOCK = "lock"
_OBJECTS = "objects"
_INDEX_SCHEMA = "repro.artifacts.index/v1"


@dataclass(frozen=True)
class ArtifactEntry:
    """One manifest row: what is cached and how it has been used."""

    key: str
    phase: str
    size: int
    created: float
    last_used: float


class ArtifactStore:
    """A content-addressed blob store on a local directory, trimmed
    to a byte cap by :meth:`gc`."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(os.path.join(root, _OBJECTS), exist_ok=True)

    # -- paths / locking ------------------------------------------------------

    def _blob_path(self, key: str) -> str:
        return os.path.join(self.root, _OBJECTS, key[:2], key)

    @property
    def _index_path(self) -> str:
        return os.path.join(self.root, _INDEX)

    @contextmanager
    def _lock(self, shared: bool = False) -> Iterator[None]:
        """Advisory lock over manifest access: exclusive for writers,
        shared (``LOCK_SH``) for read-only paths, so concurrent readers
        never serialize behind each other — only behind a writer."""
        path = os.path.join(self.root, _LOCK)
        fd = os.open(path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_SH if shared else fcntl.LOCK_EX)
            yield
        finally:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)

    # -- manifest -------------------------------------------------------------

    def _read_index(self) -> Dict[str, Dict]:
        try:
            with open(self._index_path) as fp:
                doc = json.load(fp)
        except (OSError, ValueError):
            # Missing or damaged manifest: start empty. Blobs still on
            # disk are re-adopted lazily as their keys are re-put.
            return {}
        if doc.get("schema") != _INDEX_SCHEMA:
            return {}
        entries = doc.get("entries")
        return entries if isinstance(entries, dict) else {}

    def _write_index(self, entries: Dict[str, Dict]) -> None:
        with atomic_write(self._index_path) as fp:
            json.dump({"schema": _INDEX_SCHEMA, "entries": entries},
                      fp, indent=2, sort_keys=True)
            fp.write("\n")

    # -- blob access ----------------------------------------------------------

    def has(self, key: str) -> bool:
        """Whether ``key`` is present (manifest and blob both)."""
        return key in self._read_index() and os.path.exists(
            self._blob_path(key))

    def get(self, key: str, touch: bool = True) -> Optional[bytes]:
        """The blob for ``key``, or ``None`` on a miss.

        A hit stamps the entry's ``last_used``; a manifest entry whose
        blob vanished (or vice versa) is treated as a miss and dropped.
        ``touch=False`` is a pure read: it takes only the shared lock,
        never rewrites the manifest, and leaves LRU state untouched —
        the path concurrent readers (the serve layer) use while a
        writer may be racing them.
        """
        if not touch:
            with self._lock(shared=True):
                if key not in self._read_index():
                    return None
                try:
                    with open(self._blob_path(key), "rb") as fp:
                        return fp.read()
                except OSError:
                    return None
        with self._lock():
            entries = self._read_index()
            meta = entries.get(key)
            if meta is None:
                return None
            try:
                with open(self._blob_path(key), "rb") as fp:
                    data = fp.read()
            except OSError:
                del entries[key]
                self._write_index(entries)
                return None
            meta["last_used"] = time.time()
            self._write_index(entries)
            return data

    def put(self, key: str, data: bytes, phase: str = "") -> None:
        """Store ``data`` under ``key`` atomically and index it."""
        with atomic_write(self._blob_path(key), "wb") as fp:
            fp.write(data)
        now = time.time()
        with self._lock():
            entries = self._read_index()
            created = entries.get(key, {}).get("created", now)
            entries[key] = {"phase": phase, "size": len(data),
                            "created": created, "last_used": now}
            self._write_index(entries)

    # -- inspection -----------------------------------------------------------

    def entries(self) -> List[ArtifactEntry]:
        """Manifest rows, most recently used first."""
        rows = [
            ArtifactEntry(key=key, phase=str(meta.get("phase", "")),
                          size=int(meta.get("size", 0)),
                          created=float(meta.get("created", 0.0)),
                          last_used=float(meta.get("last_used", 0.0)))
            for key, meta in self._read_index().items()
        ]
        rows.sort(key=lambda e: (-e.last_used, e.key))
        return rows

    @property
    def total_bytes(self) -> int:
        """Sum of indexed blob sizes."""
        return sum(int(m.get("size", 0))
                   for m in self._read_index().values())

    def __len__(self) -> int:
        return len(self._read_index())

    # -- maintenance ----------------------------------------------------------

    def gc(self, max_bytes: int) -> List[ArtifactEntry]:
        """Evict least-recently-used entries until the store fits
        ``max_bytes``; returns what was evicted.
        """
        evicted: List[ArtifactEntry] = []
        with self._lock():
            entries = self._read_index()
            total = sum(int(m.get("size", 0)) for m in entries.values())
            # Oldest last_used first.
            for key in sorted(entries,
                              key=lambda k: (entries[k].get("last_used", 0.0),
                                             k)):
                if total <= max_bytes:
                    break
                meta = entries.pop(key)
                total -= int(meta.get("size", 0))
                evicted.append(ArtifactEntry(
                    key=key, phase=str(meta.get("phase", "")),
                    size=int(meta.get("size", 0)),
                    created=float(meta.get("created", 0.0)),
                    last_used=float(meta.get("last_used", 0.0))))
                try:
                    os.unlink(self._blob_path(key))
                except OSError:
                    pass
            if evicted:
                self._write_index(entries)
        return evicted

    def clear(self) -> int:
        """Remove every entry and blob; returns how many were dropped."""
        with self._lock():
            entries = self._read_index()
            for key in entries:
                try:
                    os.unlink(self._blob_path(key))
                except OSError:
                    pass
            self._write_index({})
            return len(entries)
