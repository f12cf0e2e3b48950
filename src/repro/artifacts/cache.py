"""The pipeline-facing phase cache: store + serializers + metrics.

:class:`PhaseCache` is what ``run_study(..., cache=...)`` talks to at
each phase boundary: *fetch* an artifact by its fingerprint key (a hit
deserializes and skips the phase), or *save* a freshly-computed one.
The pipeline no longer calls it inline: fetch/save is driven by the
phase runner of :class:`repro.engine.Executor`, which applies this
cache uniformly to every study-graph node declaring a ``cache_key``.
Every operation is accounted through :mod:`repro.obs`:

- ``repro.cache.hits{phase=...}`` / ``repro.cache.misses{phase=...}``
- ``repro.cache.bytes_read{phase=...}`` / ``repro.cache.bytes_written{phase=...}``

A damaged or unreadable cache entry is a *miss*, never an error: the
pipeline recomputes and overwrites it. Saving is likewise best-effort —
an artifact that refuses to serialize (e.g. a degraded join) is skipped
with a ``repro.cache.skipped`` count, and the run proceeds unaffected.

A chaos run hands the executor keys only for the phases no fault
reaches (the telescope, and the crawl when transport faults are off):
injected faults are schedule-dependent state, and caching them would
replay one run's faults into every later run.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.artifacts.serializers import PHASE_SERIALIZERS
from repro.artifacts.store import ArtifactStore
from repro.obs import NULL_TELEMETRY, RunTelemetry

__all__ = ["PhaseCache"]


class PhaseCache:
    """Fetch/save phase artifacts against one :class:`ArtifactStore`."""

    def __init__(self, store: ArtifactStore,
                 telemetry: Optional[RunTelemetry] = None):
        self.store = store
        self.telemetry = telemetry or NULL_TELEMETRY

    @classmethod
    def open(cls, cache: Union[str, ArtifactStore, "PhaseCache"],
             telemetry: Optional[RunTelemetry] = None) -> "PhaseCache":
        """Normalize what callers hand ``run_study``: a cache directory
        path, a bare :class:`ArtifactStore`, or a ready cache."""
        if isinstance(cache, PhaseCache):
            if telemetry is not None and cache.telemetry is NULL_TELEMETRY:
                cache.telemetry = telemetry
            return cache
        if isinstance(cache, ArtifactStore):
            return cls(cache, telemetry)
        return cls(ArtifactStore(str(cache)), telemetry)

    # -- counters -------------------------------------------------------------

    def _count(self, name: str, phase: str, n: int = 1) -> None:
        self.telemetry.registry.counter(f"repro.cache.{name}",
                                        phase=phase).inc(n)

    # -- fetch / save ---------------------------------------------------------

    def fetch(self, phase: str, key: str):
        """The cached artifact of ``phase`` under ``key``, or ``None``.

        A present-but-undeserializable blob counts as a miss (the
        recompute will overwrite it).
        """
        loads = PHASE_SERIALIZERS[phase][1]
        journal = self.telemetry.journal
        data = self.store.get(key)
        if data is None:
            self._count("misses", phase)
            journal.emit("cache.miss", phase=phase, key=key)
            return None
        try:
            artifact = loads(data)
        except Exception:
            self._count("misses", phase)
            journal.emit("cache.miss", phase=phase, key=key,
                         corrupt=True)
            return None
        self._count("hits", phase)
        self._count("bytes_read", phase, len(data))
        journal.emit("cache.hit", phase=phase, key=key, bytes=len(data))
        return artifact

    def save(self, phase: str, key: str, artifact: object) -> bool:
        """Serialize and store a phase artifact; returns whether it was
        written. Unserializable artifacts are skipped, not fatal.

        The work is timed by a ``cache.save`` span (annotated with the
        ``phase`` and the ``bytes`` written) under the span of the phase
        that saves, so a slow save is not hidden in the phase's own
        time."""
        dumps = PHASE_SERIALIZERS[phase][0]
        with self.telemetry.tracer.span("cache.save", phase=phase) as span:
            try:
                data = dumps(artifact)
            except ValueError:
                self._count("skipped", phase)
                self.telemetry.journal.emit("cache.skipped", phase=phase,
                                            key=key)
                return False
            self.store.put(key, data, phase=phase)
            span.annotate(bytes=len(data))
        self._count("bytes_written", phase, len(data))
        self.telemetry.journal.emit("cache.save", phase=phase, key=key,
                                    bytes=len(data))
        return True
