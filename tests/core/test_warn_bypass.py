"""The deduplicated bypass-warning helper.

The pipeline's former inline ``import warnings`` + ``warnings.warn``
blocks are one module-level helper now; the warning *category* and the
exact *messages* are pinned (tools filter on them).
"""

import warnings

import pytest

from repro import (ChaosConfig, RunTelemetry, WorldConfig, build_world,
                   run_study)
from repro.core.pipeline import (
    PREBUILT_WORLD_REASON,
    WORKERS_IGNORED_REASON,
    _warn_bypass,
)
from repro.obs import read_journal

# The messages exactly as the pre-refactor pipeline emitted them.
EXPECTED = {
    "prebuilt-world": "a pre-built world cannot be fingerprinted (its build "
                      "flags are unknown); pass a config instead of a world "
                      "to use the artifact cache",
    "workers-ignored": "the crawl is serial: n_workers other than 1 is "
                       "ignored",
}


class TestHelper:
    def test_category_is_runtime_warning(self):
        with pytest.warns(RuntimeWarning, match="^exactly this$"):
            _warn_bypass("exactly this")

    def test_messages_unchanged(self):
        assert PREBUILT_WORLD_REASON == EXPECTED["prebuilt-world"]
        assert WORKERS_IGNORED_REASON == EXPECTED["workers-ignored"]


def _report(n_workers=1, chaos=None):
    """The tiny study's report, and every warning the run emitted."""
    with warnings.catch_warnings(record=True) as recorded:
        warnings.simplefilter("always")
        study = run_study(WorldConfig.tiny(), chaos=chaos,
                          n_workers=n_workers)
    return study.report(), recorded


@pytest.fixture(scope="module")
def serial_reports():
    """The clean and the chaos tiny study's reports at one worker."""
    return {"clean": _report()[0],
            "chaos": _report(chaos=ChaosConfig(seed=1))[0]}


class TestPipelineEmission:
    """Each bypass path emits its exact message, as RuntimeWarning,
    attributed to the line that called ``run_study``."""

    def _emitted(self, recorded, key):
        """The recorded warning carrying ``EXPECTED[key]``."""
        matches = [w for w in recorded if str(w.message) == EXPECTED[key]]
        assert len(matches) == 1, [str(w.message) for w in recorded]
        assert matches[0].category is RuntimeWarning
        return matches[0]

    def test_prebuilt_world_with_cache(self, tmp_path):
        world = build_world(WorldConfig.tiny(seed=11))
        with pytest.warns(RuntimeWarning) as recorded:
            run_study(world=world, cache=str(tmp_path / "c"))
        assert self._emitted(recorded, "prebuilt-world").filename == \
            __file__

    def test_clean_run_with_workers(self, serial_reports):
        report, recorded = _report(n_workers=2)
        assert len(recorded) == 1
        assert self._emitted(recorded, "workers-ignored").filename == \
            __file__
        assert report == serial_reports["clean"]

    def test_chaos_run_with_workers(self, serial_reports):
        report, recorded = _report(n_workers=2, chaos=ChaosConfig(seed=1))
        assert len(recorded) == 1
        assert self._emitted(recorded, "workers-ignored").filename == \
            __file__
        assert report == serial_reports["chaos"]

    def test_zero_workers_raise(self):
        with pytest.raises(ValueError):
            run_study(WorldConfig.tiny(), n_workers=0)

    def test_chaos_run_journals_the_workers_it_crawled_with(self, tmp_path):
        # The worker count leaves no trace: the crawl span and the
        # run.start record of a two-worker run equal a serial run's.
        described = []
        for n_workers in (2, 1):
            telemetry = RunTelemetry.create()
            path = tmp_path / f"run{n_workers}.jsonl"
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                run_study(WorldConfig.tiny(), chaos=ChaosConfig(seed=1),
                          n_workers=n_workers, telemetry=telemetry,
                          journal=str(path))
            study_span, = telemetry.tracer.roots
            crawl = next(c for c in study_span.children
                         if c.name == "crawl")
            start = next(r for r in read_journal(path)
                         if r["type"] == "run.start")
            described.append((crawl.meta, {
                k: v for k, v in start.items()
                if k not in ("seq", "t", "utc", "run_id")}))
        assert described[0] == described[1]
        assert "workers" not in described[0][0]

    def test_chaos_run_at_one_worker_keeps_the_crawl_quiet(self):
        with warnings.catch_warnings(record=True) as recorded:
            warnings.simplefilter("always")
            run_study(WorldConfig.tiny(), chaos=ChaosConfig(seed=1))
        assert EXPECTED["workers-ignored"] not in \
            [str(w.message) for w in recorded]

    def test_clean_run_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_study(WorldConfig.tiny())
