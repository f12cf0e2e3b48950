"""The deduplicated bypass-warning helper.

The pipeline's former inline ``import warnings`` + ``warnings.warn``
blocks are one module-level helper now; the warning *category* and the
exact pre-refactor *messages* must be unchanged (tools filter on them).
"""

import warnings

import pytest

from repro import (ChaosConfig, RunTelemetry, WorldConfig, build_world,
                   run_study)
from repro.core.pipeline import (
    CHAOS_CACHE_REASON,
    PREBUILT_WORLD_REASON,
    SERIAL_CRAWL_REASON,
    _warn_bypass,
)
from repro.obs import read_journal

# The messages exactly as the pre-refactor pipeline emitted them.
EXPECTED = {
    "chaos-cache": "chaos runs bypass the artifact cache: injected faults "
                   "must never be cached nor replayed from it",
    "prebuilt-world": "a pre-built world cannot be fingerprinted (its build "
                      "flags are unknown); pass a config instead of a world "
                      "to use the artifact cache",
    "serial-crawl": "chaos runs force a serial crawl: the fault injector "
                    "is stateful (burst state, fault log, RNG streams), "
                    "so its schedule cannot be sharded across forked "
                    "workers",
}


class TestHelper:
    def test_category_is_runtime_warning(self):
        with pytest.warns(RuntimeWarning, match="^exactly this$"):
            _warn_bypass("exactly this")

    def test_messages_unchanged(self):
        assert CHAOS_CACHE_REASON == EXPECTED["chaos-cache"]
        assert PREBUILT_WORLD_REASON == EXPECTED["prebuilt-world"]
        assert SERIAL_CRAWL_REASON == EXPECTED["serial-crawl"]


class TestPipelineEmission:
    """Each bypass path emits its exact message, as RuntimeWarning,
    attributed to the line that called ``run_study``."""

    def _emitted(self, recorded, key):
        """The recorded warning carrying ``EXPECTED[key]``."""
        matches = [w for w in recorded if str(w.message) == EXPECTED[key]]
        assert len(matches) == 1, [str(w.message) for w in recorded]
        assert matches[0].category is RuntimeWarning
        return matches[0]

    def test_chaos_run_with_cache(self, tmp_path):
        with pytest.warns(RuntimeWarning) as recorded:
            run_study(WorldConfig.tiny(), cache=str(tmp_path / "c"),
                      chaos=ChaosConfig(seed=1))
        assert self._emitted(recorded, "chaos-cache").filename == __file__

    def test_prebuilt_world_with_cache(self, tmp_path):
        world = build_world(WorldConfig.tiny(seed=11))
        with pytest.warns(RuntimeWarning) as recorded:
            run_study(world=world, cache=str(tmp_path / "c"))
        assert self._emitted(recorded, "prebuilt-world").filename == \
            __file__

    def test_chaos_run_with_workers(self):
        with pytest.warns(RuntimeWarning) as recorded:
            run_study(WorldConfig.tiny(), chaos=ChaosConfig(seed=1),
                      n_workers=2)
        assert self._emitted(recorded, "serial-crawl").filename == __file__

    def test_chaos_run_journals_the_workers_it_crawled_with(self, tmp_path):
        telemetry = RunTelemetry.create()
        path = tmp_path / "run.jsonl"
        with pytest.warns(RuntimeWarning) as recorded:
            run_study(WorldConfig.tiny(), chaos=ChaosConfig(seed=1),
                      n_workers=2, telemetry=telemetry, journal=str(path))
        self._emitted(recorded, "serial-crawl")
        study_span, = telemetry.tracer.roots
        crawl = next(c for c in study_span.children if c.name == "crawl")
        start = next(r for r in read_journal(path)
                     if r["type"] == "run.start")
        assert crawl.meta["workers"] == 1
        assert start["n_workers"] == 1

    def test_chaos_run_at_one_worker_keeps_the_crawl_quiet(self):
        with warnings.catch_warnings(record=True) as recorded:
            warnings.simplefilter("always")
            run_study(WorldConfig.tiny(), chaos=ChaosConfig(seed=1))
        assert EXPECTED["serial-crawl"] not in \
            [str(w.message) for w in recorded]

    def test_clean_run_crawls_with_its_workers(self):
        telemetry = RunTelemetry.create()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_study(WorldConfig.tiny(), n_workers=2, telemetry=telemetry)
        study_span, = telemetry.tracer.roots
        crawl = next(c for c in study_span.children if c.name == "crawl")
        assert crawl.meta["workers"] == 2

    def test_clean_run_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_study(WorldConfig.tiny())
