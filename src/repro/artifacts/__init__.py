"""repro.artifacts — the content-addressed phase cache.

The paper's own workflow is "measure once, analyze many times"
(OpenINTEL Avro archives + CAIDA's curated RSDoS feed, §3); this
package gives the reproduction the same property. Each expensive
pipeline phase — telescope, crawl, join, events — gets a deterministic
sha256 fingerprint chained from the canonical
:class:`~repro.world.config.WorldConfig` (see
:mod:`repro.artifacts.fingerprint`), its output an exact serialized
form (:mod:`repro.artifacts.serializers`), and a content-addressed
on-disk home with an LRU-capped manifest
(:mod:`repro.artifacts.store`). ``run_study(..., cache="~/.cache/...")``
then skips every phase whose key is already present — warm-cache
output is bit-identical to cold, at any worker count.

>>> from repro import WorldConfig, run_study
>>> study = run_study(WorldConfig.tiny(), cache="/tmp/repro-cache")
>>> warm = run_study(WorldConfig.tiny(), cache="/tmp/repro-cache")  # skips
>>> warm.report() == study.report()
True

A chaos run uses the cache only for the phases no fault reaches:
injected faults must never be cached. See ``docs/caching.md`` for the
layout and invalidation rules.
"""

from repro.artifacts.cache import PhaseCache
from repro.artifacts.fingerprint import (PHASES, SCHEMA_VERSIONS,
                                         catalog_key, config_fingerprint,
                                         day_keys, phase_key, study_keys)
from repro.artifacts.serializers import (PHASE_SERIALIZERS, dumps_catalog,
                                         dumps_events, dumps_feed, dumps_join,
                                         dumps_store, loads_catalog,
                                         loads_events, loads_feed, loads_join,
                                         loads_store)
from repro.artifacts.store import ArtifactEntry, ArtifactStore

__all__ = [
    "ArtifactEntry",
    "ArtifactStore",
    "PhaseCache",
    "PHASES",
    "PHASE_SERIALIZERS",
    "SCHEMA_VERSIONS",
    "config_fingerprint",
    "phase_key",
    "study_keys",
    "day_keys",
    "catalog_key",
    "dumps_feed", "loads_feed",
    "dumps_store", "loads_store",
    "dumps_join", "loads_join",
    "dumps_events", "loads_events",
    "dumps_catalog", "loads_catalog",
]
